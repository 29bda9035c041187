(** Primitive operations over literals: saturated and strict.
    Comparisons return the [Bool] datatype. *)

type t =
  | Add | Sub | Mul | Div | Mod | Neg
  | Eq | Ne | Lt | Le | Gt | Ge
  | CharEq | Ord | Chr | StrLen | StrIdx

val all : t list

(** Argument types and result type. *)
val signature : t -> Types.t list * Types.t

val name : t -> string
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Constant-fold to a literal ([None] when stuck or boolean). *)
val fold_lit : t -> Literal.t list -> Literal.t option

(** Constant-fold operations with a boolean result. *)
val fold_bool : t -> Literal.t list -> bool option
