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

(** A saturated application's result: a literal, a boolean (the
    caller builds [True] or [False]) or stuck. *)
type folded = Lit of Literal.t | Bool of bool | Stuck

(** How an operation computes, for a caller that resolves it once: two
    [Int]s to an [Int] ([Div2]: stuck when the second is 0) or to a
    [Bool], or any arguments through the general case. *)
type impl =
  | Int2 of (int -> int -> int)
  | Div2 of (int -> int -> int)
  | Cmp2 of (int -> int -> bool)
  | General of (Literal.t list -> folded)

val impl : t -> impl

(** Constant-fold a saturated application to literal arguments. *)
val fold : t -> Literal.t list -> folded
