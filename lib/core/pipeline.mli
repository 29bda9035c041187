(** The Core-to-Core pass pipeline: the three compiler configurations
    of the paper's experiment (join-points, pre-join-point baseline,
    and a no-commuting-conversions ablation). *)

type mode = Baseline | Join_points | No_cc

val mode_name : mode -> string

(** What the pass cache stores for one (pass, input tree) pair: the
    output tree plus {e everything else} the pass would have produced
    — its tick firings, its ledger entries, and the unique-supply
    position it left behind ({!Ident.counter_value}) — so a cache hit
    replays the pass exactly and a warm compile stays byte-identical
    to a cold one (trees, tick counts, and decision ledgers alike). *)
type cached_pass = {
  cp_output : Syntax.expr;
  cp_ident_after : int;
      (** {!Ident.counter_value} after the pass ran; restored on hit
          so later passes allocate the same uniques they would have
          cold. *)
  cp_ticks : (string * int) list;  (** Ticks the pass fired, by name. *)
  cp_decisions : Decision.event list;  (** Ledger entries, in order. *)
}

(** A per-pass memoization hook ([Fj_service.Cache.pass_cache]
    builds one; the compile service itself caches whole requests and
    leaves this unset): [lookup] is consulted before each pass runs;
    [store] is offered every successful, un-rolled-back pass result.
    [supply] is {!Ident.counter_value} {e before} the pass — part of
    the cache key, because what a pass produces depends on where the
    unique supply stands when it starts (the pipeline passes it
    explicitly since by store time the counter has already moved). The
    implementation also keys on the pass label, the round-trippable
    {!Sexp} encoding of [input], and its own configuration
    fingerprint. The identity ["input"] pass is never cached. *)
type pass_cache = {
  cache_lookup :
    pass:string -> supply:int -> input:Syntax.expr -> cached_pass option;
  cache_store :
    pass:string -> supply:int -> input:Syntax.expr -> cached_pass -> unit;
}

type config = {
  mode : mode;
  iterations : int;
  inline_threshold : int;
  dup_threshold : int;
  strictness : bool;
  cse : bool;
  rules : Rules.rule list;
  spec_constr : bool;
  datacons : Datacon.env;
  policy : Guard.policy;
      (** [Strict] (default): passes run bare and any failure aborts
          compilation. [Recover]: every pass runs under
          {!Guard.protect} — fuel-metered, and size-checked and Linted
          after every pass that changed the tree — and a failed pass is
          rolled back and recorded as a {!Guard.incident}; every
          optimisation pass is optional. *)
  limits : Guard.limits;
      (** Per-pass fuel / size-growth budgets enforced under
          [Recover]. *)
  cache : pass_cache option;
      (** Content-addressed pass memoization ({!pass_cache});
          [None] (the default) recomputes every pass. *)
}

val default_config :
  ?mode:mode ->
  ?iterations:int ->
  ?inline_threshold:int ->
  ?dup_threshold:int ->
  ?strictness:bool ->
  ?cse:bool ->
  ?spec_constr:bool ->
  ?rules:Rules.rule list ->
  ?datacons:Datacon.env ->
  ?policy:Guard.policy ->
  ?limits:Guard.limits ->
  ?cache:pass_cache ->
  unit ->
  config

(** One pass execution in the trace. *)
type pass_record = {
  pass : string;
  duration_ms : float;
  lint_ms : float;
      (** {!Guard}'s lint time; 0 under [Strict] and when Guard skipped
          the re-check of an unchanged tree. *)
  size_before : int;
  size_after : int;
  joins_after : int;
  shape_after : Syntax.measure;
      (** Tree shape of the pass's output: nodes, depth, estimated
          heap words ({!Syntax.measure}). *)
  gc : Gcstats.t;
      (** What the {e compiler} allocated running this pass: the GC
          delta over the pass span (lint time included), answering
          "which pass allocates". *)
  ticks : (string * int) list;  (** Ticks fired by this pass. *)
  decisions : Decision.event list;
      (** Ledger entries recorded by this pass, oldest first. *)
  incident : Guard.incident option;
      (** Under the [Recover] policy: the rollback this pass suffered,
          if any ([size_after] then equals [size_before]). *)
  cached : bool;
      (** The pass was replayed from the pass cache rather than run:
          same output, ticks, and ledger entries, near-zero cost. *)
}

(** A structured trace of one pipeline run: per-pass timing, term
    sizes, join-point counts, and simplifier-tick deltas, plus the
    whole-run tick totals. *)
type report

(** Passes in execution order. *)
val passes : report -> pass_record list

(** The configuration the report was produced under ({!mode_name}) —
    the key coverage maps file the run's ticks under. *)
val report_mode : report -> string

(** Completed hierarchical wall-clock spans of the run, oldest first:
    a root ["compile"] span (cat ["pipeline"]) enclosing one span per
    pass (cat ["pass"], whose duration {e equals} the corresponding
    {!pass_record.duration_ms}) enclosing the guard phases (cat
    ["guard"]: ["body"], ["lint"], ["rollback"]). *)
val spans : report -> Span.span list

(** The run's span tree as collapsed flamegraph stacks
    ({!Span.folded_stacks}): exclusive weights, every span exactly
    once, the line weights under the [compile] root summing to the
    compile span's own total. *)
val folded_stacks : ?weight:Span.weight -> report -> (string * int) list

(** {!folded_stacks} rendered as folded text ({!Span.folded}) —
    pipeable straight into flamegraph.pl / inferno / speedscope. *)
val folded : ?weight:Span.weight -> report -> string

(** (pass name, size after) in execution order — the legacy trail. *)
val trail : report -> (string * int) list

(** Whole-run nonzero tick counts, by tick name. *)
val ticks : report -> (string * int) list

val total_ticks : report -> int

(** Bindings contified over the whole run. *)
val contified : report -> int

(** The whole-run decision ledger, oldest first: every rewrite any
    pass accepted or refused, with its site and structured reason. *)
val decisions : report -> Decision.event list

(** Rollbacks suffered during the run, in execution order. Always
    empty under [Strict] (which aborts instead of rolling back). *)
val incidents : report -> Guard.incident list

(** GC delta over the whole compile span ({!Gcstats}): everything the
    run allocated, passes and glue alike. *)
val total_gc : report -> Gcstats.t

(** Per-pass table (with per-pass compiler allocation) followed by a
    GC summary line and the GHC-style "Total ticks" table. *)
val pp_report : Format.formatter -> report -> unit

(** The full trace as JSON: [{mode, policy, input_size, output_size,
    total_ms, total_gc, total_ticks, contified, ticks: {name: count},
    decisions: {fired, rejected, counts}, incidents: [incident],
    passes: [{name, duration_ms, lint_ms, size_before, size_after,
    joins_after, shape_after: {nodes, depth, heap_words}, gc, ticks,
    decisions, incident?}]}] — see {!Guard.incident_json} and
    {!Gcstats.to_json} for the nested shapes. *)
val report_to_json : report -> string

(** Compact optimizer summary for benchmark trajectory files:
    [{total_ms, total_gc, total_ticks, contified, ticks, decisions,
    metrics}]. *)
val summary_json : report -> Telemetry.Json.t

(** Chrome trace-event JSON over one or more runs — one Perfetto track
    per report, named by its configuration, plus a [gc_words/<mode>]
    counter track with one sample per pass boundary (minor / major /
    promoted words allocated by that pass); histogram summaries under
    [otherData.metrics]. Loadable in https://ui.perfetto.dev. *)
val perfetto_json : ?file:string -> report list -> Telemetry.Json.t

(** Run the configured pipeline; also returns the structured trace. *)
val run_report : config -> Syntax.expr -> Syntax.expr * report

val run : config -> Syntax.expr -> Syntax.expr

(** Optimise under every mode, as an association list. *)
val run_all_modes :
  ?iterations:int ->
  ?datacons:Datacon.env ->
  Syntax.expr ->
  (mode * Syntax.expr) list
