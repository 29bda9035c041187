(** Occurrence analysis: counts, under-lambda flags, and the
    tail-call/shape tracking that drives contification (Sec. 4). *)

type call_shape = { n_ty : int; n_val : int }

type info = {
  count : int;
  under_lam : bool;
  all_tail : bool;
  shape : call_shape option;
}

type t = info Ident.Map.t

val union : t -> t -> t

(** Analysis of a complete (tail-position) expression. *)
val of_expr : Syntax.expr -> t

(** {1 Per-node rules}

    A node's usage from its children's, each child analysed as if in
    tail position: a rule marks its non-tail positions itself, and
    marking erases the difference (a child's usage analysed in or out
    of tail position agrees once marked). {!Contify} builds the
    usage of the tree it returns bottom-up with these, so a binding
    reads its binder's usage off its scope instead of re-analysing it. *)

(** Close the scope of some binders: their usage leaves the map. *)
val close : Syntax.var list -> t -> t

(** Value arguments of a constructor, primop, call or jump. *)
val of_args : t list -> t

(** A lambda binding the given variables (none for a type lambda). *)
val of_lam : Syntax.var list -> t -> t

(** A non-recursive or strict [let], given its body's usage with the
    binder already closed. *)
val of_let : rhs:t -> body:t -> t

val of_letrec : Syntax.var list -> rhss:t list -> body:t -> t

(** One case alternative with the given pattern. *)
val of_alt : Syntax.pat -> t -> t

(** A case, given its alternatives from {!of_alt}. *)
val of_case : scrut:t -> alts:t list -> t

(** One right-hand side of a join binding. *)
val of_join_rhs : Syntax.jbind -> Syntax.join_defn -> t -> t

(** A join binding, given its right-hand sides from {!of_join_rhs}. *)
val of_join : Syntax.jbind -> rhss:t list -> body:t -> t

(** A jump to the label with these type arguments. *)
val of_jump : Syntax.var -> Types.t list -> t list -> t

(** An application spine headed by a variable, given its arguments and
    the usages of its value arguments; [tail] is the spine's position. *)
val of_call :
  tail:bool ->
  Syntax.var ->
  [ `Ty of Types.t | `Val of Syntax.expr ] list ->
  t list ->
  t

(** A spine headed by anything else, given the head's usage. *)
val of_apply : head:t -> t list -> t

(** {1 Queries} *)

val lookup : t -> Syntax.var -> info
val is_dead : t -> Syntax.var -> bool
val occurs_once_safely : t -> Syntax.var -> bool

(** {1 Binder census}

    What the simplifier asks of every binder it meets, answered for
    all of a term's binders by one walk that builds no map: a mutable
    cell per binder, keyed by unique. *)

(** How a binder is used over its whole scope: its occurrences, and
    whether one sits under a [Lam], a [TyLam] or a recursive join's
    right-hand side inside that scope (a binder's own lambda or
    right-hand side does not count). A recursive join label's scope is
    the join's body alone. *)
type use = { count : int; under_lam : bool }

type census

(** Every term binder of the term, including those with no occurrence
    (count 0). *)
val census : Syntax.expr -> census

(** The use of a binder; [None] when it binds nothing in the term. *)
val use : census -> Syntax.var -> use option
