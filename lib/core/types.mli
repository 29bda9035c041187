(** Types of System F_J (Fig. 1): System F types over algebraic
    datatypes. Join points receive [forall a. sigmas -> forall r. r];
    the trailing [forall r. r] (⊥) marks a non-returning computation. *)

type t =
  | Var of Ident.t
  | Con of string
  | App of t * t
  | Arrow of t * t
  | Forall of Ident.t * t

val var : Ident.t -> t
val con : string -> t

(** Left-associated type application. *)
val apps : t -> t list -> t

(** [arrows sigmas tau] = [sigma_1 -> ... -> tau]. *)
val arrows : t list -> t -> t

val foralls : Ident.t list -> t -> t

val int : t
val char : t
val string : t
val bool : t
val unit : t

(** A fresh ⊥ = [forall r. r]. *)
val bottom : unit -> t

(** Recognises any alpha-variant of ⊥. *)
val is_bottom : t -> bool

val split_foralls : t -> Ident.t list * t
val split_arrows : t -> t list * t
val split_apps : t -> t * t list

(** The type of a join point with the given binders:
    [forall tyvars. arg_tys -> ⊥]. *)
val join_point_ty : Ident.t list -> t list -> t

val free_vars : t -> Ident.Set.t
val occurs : Ident.t -> t -> bool

(** Capture-avoiding simultaneous substitution. *)
val subst : t Ident.Map.t -> t -> t

val subst1 : Ident.t -> t -> t -> t

(** Peel one quantifier per argument. Raises [Invalid_argument] on
    non-foralls. *)
val instantiate : t -> t list -> t

(** Alpha-equivalence. *)
val equal : t -> t -> bool

(** Syntactic total order, variables (bound ones too) by {!Ident} key:
    not up to alpha, unlike {!equal}. Equal exactly when the printouts
    are. *)
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string
