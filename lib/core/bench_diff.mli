(** Benchmark trajectory analytics: the diff of two [fj-bench/1] files.

    The repository accumulates committed [BENCH_*.json] snapshots (see
    the bench harness and EXPERIMENTS.md); this module turns a pair of
    them into a structured answer to "what moved, and does it matter?"
    Programs are aligned by name, every comparable metric gets a
    delta, and an optional {e gate} classifies deltas into noise and
    regressions — replacing the ad-hoc "delta_pct worsened by more
    than 2 points" shell check CI used to hard-code.

    Metric kinds decide both the delta's unit and the gate's meaning:

    - {b Count} (machine words, steps, jumps): relative — regressed
      when the increase exceeds the gate {e percentage}.
    - {b Points} (the Table-1 [delta_pct] itself, already a
      percentage): absolute — regressed when it worsens by more than
      the gate in {e points}, which is exactly the old CI rule.
    - {b Timing} (eval wall-clock medians): noisy — the recorded
      sample spread (p95 − median of both runs) widens the gate, so
      only movement beyond measured noise {e and} the gate trips;
      off unless [gate_timing] opts in, because two machines'
      wall-clocks aren't comparable however wide the band.
    - {b Info} (tick totals, decision counts, coverage): reported,
      never gated — useful trajectory, meaningless as a pass/fail.

    Missing metrics (older snapshots) are skipped, not errors; only a
    file that fails to parse or lacks the [fj-bench/1] schema tag is
    rejected. *)

type kind = Count | Points | Timing | Info

(** One aligned metric. [delta] is [new - old] in the metric's own
    unit; [delta_pct] is its relative form when [old <> 0]. [noise]
    (Timing only) is the combined sample spread the gate is widened
    by. [regressed] is set iff a gate was given and this metric trips
    it. *)
type metric = {
  m_metric : string;
  m_kind : kind;
  m_old : float;
  m_new : float;
  m_delta : float;
  m_delta_pct : float option;
  m_noise : float option;
  m_regressed : bool;
}

(** One program present in both files. *)
type prog = { p_name : string; p_suite : string; p_metrics : metric list }

type t = {
  d_old : string;  (** Label of the old file: date, commit if stamped. *)
  d_new : string;
  d_gate_pct : float option;
  d_gate_timing : bool;  (** Whether timing medians participate in the gate. *)
  d_programs : prog list;  (** Aligned programs, old-file order. *)
  d_only_old : string list;  (** Programs that disappeared. *)
  d_only_new : string list;  (** Programs that appeared. *)
  d_file_metrics : metric list;
      (** Whole-file trajectory: program counts, coverage. *)
}

(** All gated regressions, as [(program, metric)] — [""] for the
    program of a whole-file metric. Empty iff exit code 0. *)
val regressions : t -> (string * metric) list

(** [of_strings ?gate_pct ?gate_timing ~old_label ~new_label old new]
    over the raw contents of two [fj-bench/1] files. [Error] on a file
    that does not parse or is not a bench document. The labels
    (usually file names) are used in reports. [gate_timing] (default
    [false]) lets the gate also trip on eval timing medians; off by
    default because wall-clock comparisons are only meaningful between
    runs on the same machine — counts and [delta_pct] gate
    machine-independently. *)
val of_strings :
  ?gate_pct:float ->
  ?gate_timing:bool ->
  old_label:string ->
  new_label:string ->
  string ->
  string ->
  (t, string) result

(** Console rendering: aligned per-program table, appearing /
    disappearing programs, regression list. *)
val pp : Format.formatter -> t -> unit

(** The same content as a markdown document (summary table plus a
    regressions section) — the CI artifact. *)
val to_markdown : t -> string

(** Machine-readable diff, schema [fj-bench-diff/1]. *)
val to_json : t -> Telemetry.Json.t
