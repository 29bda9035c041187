(** The fault-tolerant pass harness: every Core-to-Core pass is
    {e optional}.

    The paper uses Core Lint "forensically" (Sec. 7) to identify a
    pass that destroys the Fig. 2 typing rules; this module turns that
    forensic check into a {e gate}. Under the [Recover] policy a pass
    that raises, produces an ill-typed tree, exceeds its rewrite-fuel
    budget, or explodes the term size is {e rolled back}: compilation
    continues from the pre-pass tree and an {!incident} records what
    happened and which tree we recovered to. Under [Strict] the pass
    runs bare and any failure aborts compilation, exactly as before —
    the posture of a compiler developer hunting the bug rather than a
    production build that must ship. *)

(** [Strict]: failures propagate (today's abort behaviour).
    [Recover]: failures roll back to the pre-pass tree. *)
type policy = Strict | Recover

val policy_name : policy -> string

(** Per-pass budgets enforced under [Recover].

    - [pass_fuel]: how many {!Telemetry} tick firings one pass may
      record before it is considered runaway and cut off ([None] =
      unlimited). Every rewrite the optimizer performs ticks, so this
      bounds work even when each individual rewrite is legitimate.
    - Size ceiling: after the pass, the term may not exceed
      [max_growth_factor * size_before + max_growth_slack] nodes. *)
type limits = {
  pass_fuel : int option;
  max_growth_factor : int;
  max_growth_slack : int;
}

(** [{pass_fuel = Some 2_000_000; max_growth_factor = 12;
    max_growth_slack = 2_000}] — far above anything a healthy pass
    does on the programs we compile, so the gate only trips on genuine
    runaways. *)
val default_limits : limits

(** Why a pass was rolled back. *)
type cause =
  | Exn of string  (** The pass raised; the payload is the message. *)
  | Lint_failed of string  (** The output broke the Fig. 2 rules. *)
  | Fuel_exhausted of { budget : int }
      (** The pass recorded more than [budget] tick firings. *)
  | Size_exploded of { size_before : int; size_after : int; limit : int }

(** Stable external name: ["exception" | "lint" | "fuel" | "size"]. *)
val cause_name : cause -> string

val pp_cause : Format.formatter -> cause -> unit

(** One recovery event: which pass failed, why, and the provenance of
    the tree compilation resumed from (the label of the last pass whose
    output survived — the rolled-back-to tree). *)
type incident = {
  i_pass : string;
  i_cause : cause;
  i_restored : string;
}

val pp_incident : Format.formatter -> incident -> unit

(** [{pass, cause, detail, restored}] plus the cause's payload fields
    ([budget] for fuel; [size_before]/[size_after]/[limit] for size). *)
val incident_json : incident -> Telemetry.Json.t

(** Parse {!incident_json} back (used by round-trip tests and external
    trace consumers); [None] when the shape is wrong. *)
val incident_of_json : Telemetry.Json.t -> incident option

(** [protect ~limits ~datacons ~pass ~restored ~size_before f e] runs
    [f e] under the [Recover] policy: exceptions captured, tick fuel
    metered, result linted and size-checked against the ceiling over
    [size_before] (the {!Syntax.size} of [e]). On success returns
    [Ok (e', Syntax.measure e', lint_ms)]; on any failure returns
    [Error incident] with the incident's [i_restored] set to
    [restored] — the caller keeps [e]. Never raises (save for truly
    asynchronous exceptions like [Stack_overflow] escaping the
    heuristics, or [Out_of_memory]). *)
val protect :
  limits:limits ->
  datacons:Datacon.env ->
  pass:string ->
  restored:string ->
  size_before:int ->
  (Syntax.expr -> Syntax.expr) ->
  Syntax.expr ->
  (Syntax.expr * Syntax.measure * float, incident) result
