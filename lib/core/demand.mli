(** Demand (strictness) analysis and strictification — the Sec. 7
    strictness story for join points. *)

(** Strictness environment: binder unique -> (value arity, per-parameter
    strictness mask). *)
type fenv = (int * bool list) Ident.Map.t

(** Free variables certainly forced before the expression yields a
    WHNF, under the given masks for in-scope join points/functions. *)
val strict_vars : fenv -> Syntax.expr -> Ident.Set.t

(** Turn demanded lazy lets into strict bindings and force the strict
    arguments of jumps and saturated known calls (fixpoint masks for
    recursive groups). Typing- and meaning-preserving. Each
    strictified let / argument fires a {!Telemetry.Strict_let} /
    {!Telemetry.Strict_arg} tick. *)
val strictify : Syntax.expr -> Syntax.expr
