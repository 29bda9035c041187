(** The differential fuzzing harness behind [fjc fuzz]: generate a
    seeded well-typed program ({!Gen}), compile it under all three
    pipeline configurations with the [Recover] policy — any
    {!Guard.incident} is a ["pass-aborted"] failure whose detail is the
    incident as {!Guard.pp_incident} prints it — and compare every
    observable against the unoptimised seed program — results (the
    Fig. 3 evaluator, fuel bounded), typing (Lint on every output),
    evaluation-strategy agreement (call-by-name vs call-by-need), and
    the paper's allocation invariant — optimisation must not introduce
    allocation at a join-labelled cost centre whose label was
    allocation-free in the unoptimised run (checked via {!Profile}; a
    join {e body} is free to allocate its result). A failing program
    is greedily minimized ({!Gen.minimize}) and reported as a
    reproducible s-expression plus its generation seed. *)

(** What one fuzz case concluded. *)
type verdict =
  | Pass
  | Skip of string
      (** Oracle not applicable — e.g. the seed program exhausts the
          fuel budget. Never counts as a failure. *)
  | Fail of { mode : string; kind : string; detail : string }
      (** [mode] is the pipeline configuration that misbehaved (or
          ["seed"] for failures of the unoptimised program itself),
          [kind] a stable failure class: ["generator-ill-typed"],
          ["seed-stuck"], ["strategy-disagree"], ["pass-aborted"],
          ["output-ill-typed"], ["output-stuck"], ["result-mismatch"],
          ["join-site-allocated"]. *)

(** Run the full oracle on one (closed, generated) program. [fuel]
    bounds each evaluation (default 200_000 machine steps). [cover]
    (if given) accumulates the optimization coverage of the three
    compiles — every tick, ledger outcome, and incident cause — into
    the map ({!Coverage.observe_report}). *)
val check_program : ?fuel:int -> ?cover:Coverage.t -> Syntax.expr -> verdict

(** A minimized counterexample. *)
type failure = {
  f_seed : int;  (** Replay: [Gen.program_of_seed ~size f_seed]. *)
  f_mode : string;
  f_kind : string;
  f_detail : string;  (** Of the {e original} failure. *)
  f_size_orig : int;  (** Size of the program as generated. *)
  f_program : Syntax.expr;  (** Minimized; still fails the oracle. *)
}

val pp_failure : Format.formatter -> failure -> unit

(** [{seed, mode, kind, detail, size_orig, size_min, program}] with
    the program as its {!Sexp} text. *)
val failure_json : failure -> Telemetry.Json.t

type summary = {
  cases : int;  (** Cases actually executed (less than requested when
                    [should_stop] ended the run early). *)
  passed : int;
  skipped : int;
  interesting : int;
      (** Cases that covered a previously-unseen coverage point
          (always 0 without a [cover] map). *)
  failures : failure list;  (** Oldest first. *)
}

(** {1 Flight recorder}

    Long soak runs need to be diagnosable without rerunning: the
    recorder keeps a bounded ring of the most recent spans (cases,
    per-configuration compiles and evaluations, minimizations) and
    emits periodic heartbeat lines — progress, throughput, incident
    count, and a snapshot of the latency histograms. *)

(** One heartbeat: progress and throughput at an instant of the run.
    [hb_incidents] counts the oracle failures found so far. *)
type heartbeat = {
  hb_cases : int;  (** Cases completed. *)
  hb_total : int;  (** Cases planned. *)
  hb_elapsed_ms : float;  (** Monotonic, since the run started. *)
  hb_rate : float;  (** Cases per second. *)
  hb_passed : int;
  hb_skipped : int;
  hb_incidents : int;
  hb_epoch_ms : float;  (** Wall clock, for log correlation. *)
  hb_coverage : (int * int) option;
      (** (points covered so far, universe size) when the run carries
          a coverage map; [None] otherwise. *)
  hb_histograms : (string * Metrics.summary) list;
      (** Registry snapshot: [fuzz.case_ms], [eval.ms], … *)
}

(** One line: [heartbeat cases=200/1000 elapsed=1.3s rate=153.8/s
    pass=197 skip=3 incidents=0 cover=83/112 | fuzz.case_ms p50=4.2
    p95=31.0 max=96.3 | eval.ms …] ([cover=] only with a coverage
    map). *)
val pp_heartbeat : Format.formatter -> heartbeat -> unit

val heartbeat_json : heartbeat -> Telemetry.Json.t

type recorder

val default_heartbeat_every : int

(** [recorder ()] — [ring_cap] bounds the retained spans (default
    256), [every] is the heartbeat period in cases
    (default {!default_heartbeat_every}; a final heartbeat is always
    emitted), [on_heartbeat] is called on each emission. *)
val recorder :
  ?ring_cap:int ->
  ?every:int ->
  ?on_heartbeat:(heartbeat -> unit) ->
  unit ->
  recorder

(** The retained (most recent) spans, oldest first. *)
val recent_spans : recorder -> Span.span list

(** Spans evicted by the ring bound. *)
val dropped_spans : recorder -> int

(** Heartbeats emitted so far, oldest first. *)
val heartbeats : recorder -> heartbeat list

val recorder_metrics : recorder -> Metrics.t

(** The post-mortem dump: [{schema: "fj-flight/1", traceEvents: [...],
    dropped_spans, heartbeats, metrics, coverage?}] — [traceEvents] is
    loadable in Perfetto like the pipeline trace; [coverage] (the
    {!Coverage.summary_json} of [cover], when given) records how far
    the run reached into the optimizer. *)
val flight_json : ?cover:Coverage.t -> recorder -> Telemetry.Json.t

(** [run ~seed ~count ()] fuzzes [count] cases with seeds [seed],
    [seed+1], … — each case resets the {!Ident} supply
    ({!Gen.program_of_seed}), so any case replays in isolation from
    its printed seed. Failing cases are minimized (shrink candidates
    must lint and still fail the oracle) before being reported.
    [on_case] (if given) is called after each case with the seed and
    its verdict — progress reporting for the CLI. [recorder] (if
    given) attaches a flight recorder: every case runs inside a span
    feeding its ring, case latencies land in its metrics registry,
    and heartbeats are emitted every [every] cases plus once at the
    end.

    [cover] (if given) accumulates optimization coverage across the
    whole run; a case that covers a previously-unseen point is
    {e interesting} — counted in the summary and reported through
    [on_interesting] with its seed and program. With [guided] (needs
    [cover]) the generator is steered: interesting programs are
    retained as seeds, and about half of the later cases {!Gen.mutate}
    a retained seed instead of generating fresh — coverage-guided
    fuzzing. A mutated case keeps its [seed+i] case seed for
    reporting, but only the minimized program (not the seed) replays
    it; mutation choices are deterministic in [seed], so a whole
    guided run replays exactly. Shrinking never pollutes the map:
    minimization re-checks without [cover].

    [should_stop] is polled before each case; returning [true] ends
    the run gracefully — the case in flight is never abandoned, the
    flight recorder still gets its final heartbeat, and the summary
    (whose [cases] counts cases actually executed) reports the partial
    run honestly. This is how a SIGINT/SIGTERM drains a soak. *)
val run :
  ?size:int ->
  ?fuel:int ->
  ?on_case:(int -> verdict -> unit) ->
  ?recorder:recorder ->
  ?cover:Coverage.t ->
  ?guided:bool ->
  ?on_interesting:(int -> Syntax.expr -> unit) ->
  ?should_stop:(unit -> bool) ->
  seed:int ->
  count:int ->
  unit ->
  summary
