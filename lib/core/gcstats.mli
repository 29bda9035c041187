(** OCaml GC accounting for the compiler's own passes.

    The observability layers attribute the {e compiled program}'s
    allocation word by word ({!Profile}, {!Mstats}); this module does
    the same for the {e compiler}: a delta of GC-counter readings
    around a dynamic extent says how many words the extent allocated
    (minor and major), how many survived a minor collection
    (promoted), and how many collections it triggered. Word counts
    are read from the live allocation pointers ([Gc.minor_words] /
    [Gc.counters] — on OCaml 5, [Gc.quick_stat]'s copies only advance
    at collections), collection counts from [Gc.quick_stat].

    Nothing walks the heap, but a snapshot is not free: [Gc.quick_stat]
    copies the whole stat record and costs 1.5–1.6 µs on a 2-core
    x86-64 Xeon, against 0.03 µs for [Gc.counters] and 0.007 µs for
    [Gc.minor_words]. A compile opens about 64 spans at two snapshots
    each, 0.2–0.3 ms of a request. Reading the collection counts once
    per compile instead is ROADMAP.md item 2; meanwhile a span with no
    collector installed takes no snapshot ({!Span.with_span}).

    Readings and deltas share one record shape: a {!snapshot} is the
    counters since process start, {!delta} subtracts two of them, and
    deltas {!add} component-wise (a parent span's delta is the sum of
    its children's plus its own self-allocation — the invariant the
    flamegraph word-weighting relies on). *)

type t = {
  minor_words : float;
      (** Words allocated in the minor heap. [Gc] reports these as
          floats because the lifetime counter overflows 32-bit ints. *)
  promoted_words : float;  (** Minor-heap words that survived into the major heap. *)
  major_words : float;  (** Words allocated directly in the major heap. *)
  minor_collections : int;
  major_collections : int;
}

(** All-zero delta — the identity of {!add}. *)
val zero : t

(** Current [Gc.quick_stat] readings (counters since process start). *)
val snapshot : unit -> t

(** [delta before after] — counters accumulated between the two
    snapshots (component-wise [after - before]). *)
val delta : t -> t -> t

val add : t -> t -> t

(** Total words allocated: [minor_words + major_words -
    promoted_words] (promoted words would otherwise be counted in both
    heaps). This is the flamegraph word weight. *)
val alloc_words : t -> float

(** [{minor_words, promoted_words, major_words, minor_collections,
    major_collections}], word counts rounded to integers (they are
    integral; [Gc] only stores them as floats). *)
val to_json : t -> Telemetry.Json.t

(** The same fields as a [gc_]-prefixed assoc, ready to splice into
    span annotations or Perfetto [args]. *)
val fields : t -> (string * Telemetry.Json.t) list

(** One-line rendering, e.g. [minor 12480w promoted 96w major 0w
    collections 1/0]. *)
val pp : Format.formatter -> t -> unit
