(** Hierarchical wall-clock spans — the timing backbone of the
    observability layer.

    A {!collector} is per-invocation (same discipline as
    {!Telemetry.counters}: installed with {!with_collector} for a
    dynamic extent, nothing global survives the run). Any code inside
    that extent brackets work with {!with_span}; nesting is tracked by
    an open-span stack, so a pass span encloses its guard phases and an
    evaluator run encloses nothing but still records as a root span.
    When no collector is installed {!with_span} just runs its body —
    the machines stay instrumentable without paying for it.

    Spans are measured on the monotonic clock ({!Telemetry.now_ms})
    and export directly as Chrome trace-event JSON ("ph":"X" complete
    events), loadable in Perfetto / chrome://tracing — see
    {!trace_events}. A collector may be ring-bounded ([?cap]), which is
    what the fuzz soak flight recorder uses: only the most recent
    spans are retained and {!dropped} counts the evicted ones. *)

(** One completed span. *)
type span = {
  sp_name : string;  (** e.g. ["simplify (0)"], ["lint"], ["eval"]. *)
  sp_cat : string;
      (** Coarse category: ["pipeline"], ["pass"], ["guard"],
          ["eval"], ["machine"], ["fuzz"]. *)
  sp_start_ms : float;  (** Monotonic, process origin. *)
  sp_dur_ms : float;
  sp_depth : int;  (** 0 for a root span, parents minus one below. *)
  sp_gc : Gcstats.t;
      (** GC delta over the span's extent — what the bracketed work
          allocated and which collections it triggered. *)
  sp_args : (string * Telemetry.Json.t) list;
      (** Annotations ({!annotate}), e.g. step counts. *)
}

type collector

(** [create ?cap ()] — [cap] bounds the number of {e completed} spans
    retained (oldest evicted first); default unbounded. *)
val create : ?cap:int -> unit -> collector

(** Install [c] as the innermost collector for the extent of the
    callback (nesting saves and restores, as {!Telemetry.with_counters}
    does). *)
val with_collector : collector -> (unit -> 'a) -> 'a

(** [with_span ~cat name f] times [f] and records a span into the
    innermost collector (none installed: just runs [f]). The span is
    recorded even when [f] raises, annotated with ["raised"]. *)
val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a

(** As {!with_span}, and also returns the measured duration in ms —
    taken from the very same two clock reads that the recorded span
    holds, so a caller that stores the duration in its own record
    (e.g. {!Pipeline.pass_record.duration_ms}) is {e exactly}
    consistent with the exported span. With no collector installed it
    reads the clock twice and takes no GC snapshot. *)
val with_span_timed : ?cat:string -> string -> (unit -> 'a) -> 'a * float

(** As {!with_span_timed}, and also returns the GC delta — again the
    very same readings the recorded span holds ({!span.sp_gc}), so
    pass records and span annotations can never disagree. Works (and
    still measures) with no collector installed. *)
val with_span_stats :
  ?cat:string -> string -> (unit -> 'a) -> 'a * float * Gcstats.t

(** Attach an annotation to the innermost {e open} span (no collector
    or no open span: a no-op). Later values win on key collision. *)
val annotate : string -> Telemetry.Json.t -> unit

(** {1 Reading} *)

(** Completed spans, oldest first (by completion; children complete
    before their parents). *)
val spans : collector -> span list

(** Number of completed spans evicted by the ring bound. *)
val dropped : collector -> int

(** {1 Chrome trace-event export} *)

(** Milliseconds to the trace format's integer microseconds
    (rounded) — the [ts]/[dur] domain of every exported event. *)
val us : float -> int

(** One ["ph":"X"] complete event per span: [ts]/[dur] in integer
    microseconds, [name], [cat], the given [pid]/[tid], and the
    annotations plus [gc_*] counters under [args]. Ordered by start
    time. *)
val trace_events : ?pid:int -> ?tid:int -> collector -> Telemetry.Json.t list

(** A ["ph":"M"] [thread_name] metadata event — names a Perfetto
    track, e.g. one per pipeline configuration. *)
val thread_name_event : ?pid:int -> tid:int -> string -> Telemetry.Json.t

(** A ["ph":"C"] counter event: plots the given [args] as a counter
    track named [name] at time [ts] (integer microseconds). Used for
    the per-pass GC counter track. *)
val counter_event :
  ?pid:int ->
  ?tid:int ->
  name:string ->
  ts:int ->
  (string * Telemetry.Json.t) list ->
  Telemetry.Json.t

val span_json : span -> Telemetry.Json.t

(** {1 Collapsed-stack (folded) export}

    The flamegraph interchange format: one line per distinct stack,
    [frame;frame;frame WEIGHT], consumable by [flamegraph.pl],
    [inferno-flamegraph], speedscope, etc. *)

(** What a folded line's weight counts. *)
type weight =
  | Self_time  (** Exclusive wall-clock microseconds. *)
  | Alloc_words
      (** Exclusive allocated words ({!Gcstats.alloc_words}) — an
          allocation flamegraph. *)

(** Folded stacks, one entry per distinct stack, sorted by stack
    string. The span tree is rebuilt from the flat span list (start
    order + recorded depth); every span contributes to exactly one
    stack. Weights are {e exclusive} (a frame's own weight minus its
    children's), computed in the integer domain and clamped at 0, so
    the weights of all lines under a root sum to that root span's own
    total. Frames are [cat:name] ([name] alone for roots), with [' ']
    and [';'] sanitized. *)
val folded_stacks : ?weight:weight -> collector -> (string * int) list

(** {!folded_stacks} rendered as the newline-joined folded text. *)
val folded : ?weight:weight -> collector -> string
