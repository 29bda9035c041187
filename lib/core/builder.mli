(** Higher-order-abstract-syntax builders for well-typed F_J terms:
    binders are allocated fresh and passed to OCaml functions, so
    scoping mistakes are impossible by construction. Used throughout
    the tests, examples and benches. *)

open Syntax

(** {1 Literals and primops} *)

val int : int -> expr
val char : char -> expr
val str : string -> expr
val add : expr -> expr -> expr
val sub : expr -> expr -> expr
val mul : expr -> expr -> expr
val div_ : expr -> expr -> expr
val mod_ : expr -> expr -> expr
val eq : expr -> expr -> expr
val lt : expr -> expr -> expr
val le : expr -> expr -> expr
val gt : expr -> expr -> expr
val ge : expr -> expr -> expr

(** {1 Binders (HOAS)} *)

val lam : string -> Types.t -> (expr -> expr) -> expr

val lam3 :
  string -> Types.t -> string -> Types.t -> string -> Types.t ->
  (expr -> expr -> expr -> expr) -> expr

val tlam : string -> (Types.t -> expr) -> expr

(** Non-recursive let; the binder's type is computed from the rhs. *)
val let_ : string -> expr -> (expr -> expr) -> expr

val letrec1 : string -> Types.t -> (expr -> expr) -> (expr -> expr) -> expr

(** Non-recursive join point; the body receives a jump builder taking
    the arguments and claimed result type. *)
val join1 :
  string ->
  (string * Types.t) list ->
  (expr list -> expr) ->
  ((expr list -> Types.t -> expr) -> expr) ->
  expr

(** Recursive join point; the rhs also receives the jump builder. *)
val joinrec1 :
  string ->
  (string * Types.t) list ->
  ((expr list -> Types.t -> expr) -> expr list -> expr) ->
  ((expr list -> Types.t -> expr) -> expr) ->
  expr

(** {1 Datatypes} *)

val true_ : expr
val false_ : expr
val nothing : Types.t -> expr
val just : Types.t -> expr -> expr
val nil : Types.t -> expr
val cons : Types.t -> expr -> expr -> expr
val pair : Types.t -> Types.t -> expr -> expr -> expr
val list_ty : Types.t -> Types.t
val maybe_ty : Types.t -> Types.t
val pair_ty : Types.t -> Types.t -> Types.t
val int_list : int list -> expr

(** {1 Case expressions} *)

val alt_con :
  ?env:Datacon.env ->
  string -> Types.t list -> string list -> (expr list -> expr) -> alt

val alt_lit : Literal.t -> expr -> alt
val alt_default : expr -> alt
val case : expr -> alt list -> expr
val if_ : expr -> expr -> expr -> expr

(** {1 Application} *)

val app : expr -> expr -> expr
val app2 : expr -> expr -> expr -> expr
val app3 : expr -> expr -> expr -> expr -> expr
val tyapp : expr -> Types.t -> expr
