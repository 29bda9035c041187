(** The Simplifier: a context-passing partial evaluator in the style of
    GHC's (Sec. 7) — inlining, beta, case-of-known-constructor,
    dead-code, constant folding, and the commuting conversions.
    Join-point behaviour needs exactly two cases: the continuation is
    copied into join right-hand sides (jfloat) and discarded at jumps
    (abort). *)

type config = {
  join_points : bool;
      (** Share case alternatives as join points; enable jfloat/abort.
          When false, behave like pre-join-point GHC (alternatives
          shared as ordinary lets). *)
  case_of_case : bool;
  inline_threshold : int;
  dup_threshold : int;
  datacons : Datacon.env;
}

val default_config :
  ?join_points:bool ->
  ?case_of_case:bool ->
  ?inline_threshold:int ->
  ?dup_threshold:int ->
  ?datacons:Datacon.env ->
  unit ->
  config

(** Iterate one simplifier pass (interleaved with {!Cleanup.cleanup})
    to a fixpoint or [max_iters]. A pass keeps each binder's unique the
    first time it meets it and clones it only when it meets it again
    (its code was copied, or is simplified a second time), so that the
    output binds each unique once; code it produced is re-simplified
    with conservative usage, since the census describes the input's
    occurrences. A pass that rewrites nothing returns its input
    itself. *)
val simplify : ?max_iters:int -> config -> Syntax.expr -> Syntax.expr
