(** Data constructors and datatype environments: [typeof K] and
    [ctors T] of Fig. 2. *)

type t = {
  name : string;
  tycon : string;
  univ : Ident.t list;
  arg_tys : Types.t list;
  tag : int;
}

type tycon = {
  tc_name : string;
  tc_tyvars : Ident.t list;
  tc_cons : t list;
}

type env

val arity : t -> int

(** Field types with the universal variables instantiated. *)
val instantiate_args : t -> Types.t list -> Types.t list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

exception Duplicate of string

(** Add a datatype declaration (constructor name, field types). *)
val declare :
  env -> name:string -> tyvars:Ident.t list -> (string * Types.t list) list -> env

val find_con : env -> string -> t option
val find_tycon : env -> string -> tycon option

(** Wired-in datatypes: Bool, Unit, Pair, Maybe, Either, List,
    Ordering. *)
val builtins : env

(** Look up a builtin constructor; raises on unknown names. *)
val builtin : string -> t

val of_bool : bool -> t
