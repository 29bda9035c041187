(** The binder census: what the simplifier asks of every binder it
    meets, answered for all of a term's binders by one walk that builds
    no map: a mutable cell per binder, keyed by unique. (Contify's
    tail-call analysis lives in {!Contify}.) *)

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
