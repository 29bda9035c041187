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

(** Also record the usage of every binder (keyed by unique) — consumed
    by the simplifier. *)
val with_binder_info : Syntax.expr -> t * info Ident.Map.t

(** {1 Per-node rules}

    A node's usage from its children's, each child analysed as if in
    tail position: a rule marks its non-tail positions itself, and
    marking erases the difference (a child's usage analysed in or out
    of tail position agrees once marked). {!Contify} builds the
    usage of the tree it returns bottom-up with these, so a binding
    reads its binder's usage off its scope instead of re-analysing it.
    The optional [acc] is {!with_binder_info}'s binder accumulator. *)

(** Close the scope of some binders: their usage leaves the map. *)
val close : ?acc:info Ident.Map.t ref -> Syntax.var list -> t -> t

(** Value arguments of a constructor, primop, call or jump. *)
val of_args : t list -> t

(** A lambda binding the given variables (none for a type lambda). *)
val of_lam : ?acc:info Ident.Map.t ref -> Syntax.var list -> t -> t

(** A non-recursive or strict [let], given its body's usage with the
    binder already closed. *)
val of_let : rhs:t -> body:t -> t

val of_letrec :
  ?acc:info Ident.Map.t ref -> Syntax.var list -> rhss:t list -> body:t -> t

(** One case alternative with the given pattern. *)
val of_alt : ?acc:info Ident.Map.t ref -> Syntax.pat -> t -> t

(** A case, given its alternatives from {!of_alt}. *)
val of_case : scrut:t -> alts:t list -> t

(** One right-hand side of a join binding. *)
val of_join_rhs :
  ?acc:info Ident.Map.t ref -> Syntax.jbind -> Syntax.join_defn -> t -> t

(** A join binding, given its right-hand sides from {!of_join_rhs}. *)
val of_join :
  ?acc:info Ident.Map.t ref -> Syntax.jbind -> rhss:t list -> body:t -> t

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
