(** Abstract interpretation over Core: a monotone-framework fixpoint
    engine with three client analyses.

    The paper's argument rests on static facts about join points —
    every jump is an exact-arity tail call, Δ is reset at non-tail
    positions, dead bindings are decided by occurrence information
    (Sec. 4, Fig. 2) — which the repository could previously only
    {e typecheck} ({!Lint}) or observe dynamically (ticks, ledger,
    fuzzing). This module proves them statically:

    - {b Constant / constructor-shape propagation} on a flat lattice
      ({!aval}): literals, constructor shapes with abstract fields
      (depth-bounded), functions, ⊤. Join points are the analysis'
      control-flow graph — a jump transfers its argument abstractions
      into the join's parameter cells, and the engine iterates the
      whole program to a fixpoint over those cells (recursive join
      groups and recursive lets are the loops).
    - {b Liveness}: a binding is dead iff it is unreachable in the
      binder-dependency graph rooted at the program spine — strictly
      stronger than a count of 0 in {!Occur.census} (zero occurrences
      implies unreachable, and additionally a binding used {e only by
      dead bindings} is dead).
    - {b Join-point discipline}: a structural verifier for the Δ
      invariants — exact-arity tail jumps only, no join capture under
      lambdas, correct scoping across recursive join groups — that
      reports {e all} violations as structured {!Diagnostic}s with
      messages sharper than Lint's (a jump whose frame left the
      evaluation context names the construct that reset Δ), plus
      checks Lint has no notion of (unreached join points).

    {!check} drives all three for [fjc check], including the
    {b missed-optimization} report: sites the analysis proves
    constant-foldable or dead in the {e output} of the full
    Join_points pipeline, cross-referenced against the decision
    ledger so each finding names the pass that declined the rewrite
    and its recorded reason.

    Soundness is fuzzed ([fjc fuzz --absint]): for every generated
    program, the concrete {!Eval} result must lie in the
    concretization of {!analyze}'s abstract result ({!concretizes}),
    before and after optimisation under every configuration.

    Instrumentation follows the house discipline: the engine runs
    under {!Span} spans (cat ["analysis"], GC deltas attached) and
    publishes fixpoint-iteration counters into the ambient {!Metrics}
    registry; both are no-ops when no collector is installed. *)

(** The abstract value lattice (flat constants, depth-bounded
    constructor shapes):

    {v
            Top
        /    |    \
    Const  Shape   Fun        (Shape fields are again avals)
        \    |    /
            Bot
    v}

    [Bot] concretizes to nothing — the expression provably never
    produces a value at that point (a jump, a stuck primop, an
    unreachable branch). *)
type aval =
  | Bot
  | Const of Literal.t
  | Shape of string * aval list  (** Constructor name, field values. *)
  | Fun  (** Some (type or value) lambda. *)
  | Top

(** Least upper bound. *)
val join_aval : aval -> aval -> aval

val equal_aval : aval -> aval -> bool
val pp_aval : Format.formatter -> aval -> unit
val aval_to_string : aval -> string

(** Does the deep-forced machine result lie in the concretization of
    the abstract value? ([Top] accepts everything; [Bot] nothing —
    an analysis claiming unreachability refuted by a finished run is
    unsound.) *)
val concretizes : aval -> Eval.tree -> bool

(** What one {!analyze} run concluded. *)
type result = {
  r_value : aval;  (** Abstract result of the whole program. *)
  r_binders : aval Ident.Map.t;
      (** Final abstract value per binder (lets, join parameters,
          case-pattern binders; lambda parameters are ⊤). *)
  r_iterations : int;
      (** Global fixpoint rounds until the join-parameter and
          recursive-binder cells stabilised. *)
}

(** Run the constant/shape engine to fixpoint. [max_rounds] bounds the
    chaotic iteration (default 64); on overrun every fixpoint cell is
    widened to ⊤ and one final round records the (sound) result. *)
val analyze : ?max_rounds:int -> Syntax.expr -> result

(** {1 Liveness} *)

(** Every [let]/[letrec]/[join] binder of the program, in syntactic
    order — the universe {!dead_binders} selects from. *)
val let_binders : Syntax.expr -> Syntax.var list

(** Uniques of the transitively dead {!let_binders}: bindings
    unreachable in the dependency graph rooted at the program spine.
    A count of 0 for [x] in {!Occur.census} implies membership. *)
val dead_binders : Syntax.expr -> Ident.Set.t

(** {1 The join-point discipline verifier} *)

(** Statically prove the Δ invariants, reporting every violation:
    ["join-as-value"], ["jump-arity"], ["jump-escape"] (the jump
    names the construct — lambda body, let rhs, argument — that reset
    Δ between binding and use), ["jump-unbound"],
    ["join-binder-type"], ["ill-formed-application"] (literal or
    constructor in application-head position), plus ["dead-join"]
    warnings for join points never jumped to. A Lint-clean program
    produces no errors; the converse does not hold. *)
val verify : Syntax.expr -> Diagnostic.t list

(** {1 Missed optimizations} *)

(** [missed ~decisions e'] inspects the {e optimized} program [e']:
    primops whose arguments the analysis proves constant, cases whose
    scrutinee shape selects a single alternative, and transitively
    dead bindings that nevertheless survived the pipeline. Each
    finding is cross-checked against the decision ledger [decisions]
    (and, for dead bindings, against {!Occur.census}) so the
    diagnostic names the pass that declined the rewrite and its
    recorded reason. Also returns the fixpoint rounds the underlying
    analysis took. *)
val missed :
  decisions:Decision.event list ->
  Syntax.expr ->
  Diagnostic.t list * int

(** {1 The [fjc check] driver} *)

type check_result = {
  c_diagnostics : Diagnostic.t list;
      (** Discipline verdicts on the input followed by missed-opt
          findings on the pipeline output, in that order. *)
  c_errors : int;
  c_warnings : int;
  c_iterations : int;  (** Fixpoint rounds, both analyses summed. *)
  c_value : aval;  (** Abstract result of the input program. *)
}

(** Verify the input, run the analysis, then compile under the
    Join_points pipeline ([config]'s mode is overridden) with the
    decision ledger on and report the missed optimizations that
    survived. Discipline {e errors} suppress the pipeline stage (an
    ill-formed tree is not worth optimising). Pipeline failures are
    reported as an ["analysis-pipeline-failed"] warning, never an
    exception. *)
val check : config:Pipeline.config -> Syntax.expr -> check_result
