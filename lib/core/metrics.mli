(** The metrics registry: counters, gauges, and log-bucketed
    histograms.

    Where {!Span} answers "where did the time go, hierarchically",
    this module answers "how is the quantity distributed" — pass
    durations, evaluator step counts, fuzz case latencies. A registry
    is per-invocation (created by the pipeline / bench / fuzz harness
    and installed with {!with_registry} for a dynamic extent); the
    publishing calls ({!incr}, {!set_gauge}, {!observe}) write into
    the innermost installed registry and are no-ops when none is —
    the same discipline as {!Telemetry.tick}, so the machines publish
    unconditionally without threading state or paying when nobody is
    listening.

    Histograms are log-bucketed at quarter-powers of two (boundaries
    [2^(i/4)], resolution ~19%): constant space however many samples
    land, which is what lets a multi-hour soak keep a live latency
    distribution. Summaries report count / sum / min / max and
    bucket-interpolated p50 / p95. *)

type t

val create : unit -> t

(** Install [r] as the innermost registry for the extent of the
    callback (nesting saves and restores). *)
val with_registry : t -> (unit -> 'a) -> 'a

(** {1 Publishing — into the innermost registry; no-ops without one} *)

(** Add [by] (default 1) to a named monotone counter. *)
val incr : ?by:int -> string -> unit

(** Set a named last-value-wins gauge. *)
val set_gauge : string -> float -> unit

(** Record one sample into a named histogram. Negative samples clamp
    to 0. *)
val observe : string -> float -> unit

(** {1 Reading} *)

(** The summary of one histogram. [p50]/[p95] are bucket-interpolated
    (log-bucket resolution ~19%), clamped into [[min, max]]. *)
type summary = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_p50 : float;
  h_p95 : float;
}

val counter_value : t -> string -> int
val gauge_value : t -> string -> float option
val histogram : t -> string -> summary option

(** All counters / histogram summaries, sorted by name. *)
val counters : t -> (string * int) list

val histograms : t -> (string * summary) list

(** {1 Export} *)

val summary_json : summary -> Telemetry.Json.t

(** [{counters: {name: n}, gauges: {name: v}, histograms: {name:
    {count, sum, min, max, p50, p95}}}]. Empty sections elided. *)
val to_json : t -> Telemetry.Json.t

(** Human-readable registry dump (one line per entry); prints nothing
    on an empty registry. *)
val pp : Format.formatter -> t -> unit
