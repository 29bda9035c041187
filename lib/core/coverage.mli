(** Optimization coverage maps: which parts of the optimizer has a
    corpus of programs actually exercised?

    The dual of the telemetry substrate. {!Telemetry} counts what one
    compilation {e did}; this module aggregates, over many
    compilations, which of the optimizer's {e possible} behaviours
    ever happened at all. The universe is finite and statically
    enumerable — the paper's Fig. 4 axioms and the per-pass work
    counters ({!Telemetry.all_ticks}) crossed with the three pipeline
    configurations, every decision outcome the {!Decision} ledger can
    record (action crossed with fired / each structurally-possible
    rejection reason), and the {!Guard} incident causes — so "never
    fired" is a meaningful, closed listing, not an open-ended guess.

    A map is a plain hit-count table over that universe. [fjc cover]
    folds a corpus into one and gates CI on the percent exercised;
    {!Fuzz} keeps a cumulative map and treats any case that covers a
    previously-unseen point as {e interesting} — the feedback loop of
    coverage-guided generation. *)

(** The three dimensions of the universe. *)
type dim =
  | Ticks
      (** One point per (pipeline configuration, tick): did this
          rewrite ever fire under this configuration? *)
  | Decisions
      (** One point per (ledger action, outcome), where the outcomes
          of an action are [fired] plus each rejection reason a pass
          can actually record for it. *)
  | Guards  (** One point per {!Guard.cause} of a pass rollback. *)

(** ["ticks" | "decisions" | "guards"]. *)
val dim_name : dim -> string

(** {1 The universe} *)

(** Every point, in canonical order. Point names are stable:
    ["<mode>/<tick>"] (ticks), ["<action>:fired"] /
    ["<action>:rejected:<reason>"] (decisions), and the
    {!Guard.cause_name}s (guards). *)
val universe : (dim * string) list

val universe_size : int

(** Points of one dimension, in canonical order. *)
val dim_points : dim -> string list

(** {1 Maps} *)

type t

(** The all-zeroes map. *)
val create : unit -> t

(** An independent copy. *)
val copy : t -> t

(** {1 Recording} *)

(** [hit_tick m ~mode tick ~n] records [n] firings of [tick] under
    configuration [mode] (a {!Pipeline.mode_name}); an unknown [mode]
    counts as an {!unknown_hits}. *)
val hit_tick : ?n:int -> t -> mode:string -> Telemetry.tick -> unit

(** Record one ledger outcome. A (action, reason) pair outside the
    static table counts as an {!unknown_hits} — the round-trip tests
    assert this never happens on a real pipeline run, so the table
    cannot silently drift from the passes. *)
val hit_decision : t -> Decision.action -> Decision.verdict -> unit

(** Record one pass-rollback cause. *)
val hit_incident : t -> Guard.cause -> unit

(** Fold one whole pipeline trace into the map: every tick the run
    fired (under the report's configuration), every ledger outcome,
    every incident cause. *)
val observe_report : t -> Pipeline.report -> unit

(** Hits that fell outside the universe (unknown mode, or an
    (action, reason) pair the static table does not list). Stays 0 on
    real pipeline runs. *)
val unknown_hits : t -> int

(** {1 Reading} *)

(** Hit count of a point; 0 for unknown names. *)
val count : t -> dim -> string -> int

(** Points with a nonzero count. *)
val covered : t -> int

(** [100 * covered / universe_size]. *)
val percent : t -> float

(** (covered, total) of one dimension. *)
val dim_covered : t -> dim -> int * int

(** The Fig. 4 gate: (tick names fired under {e at least one}
    configuration, number of tick names). This is the percentage
    [fjc cover --require] enforces — a corpus exercises an axiom if
    any of the three compilers fires it. *)
val axioms_covered : t -> int * int

(** Points never hit, in canonical order — the actionable listing. *)
val never_fired : t -> (dim * string) list

(** {1 Combining} *)

(** [merge_into ~into m] adds every count of [m] (and its unknown
    hits) into [into]. *)
val merge_into : into:t -> t -> unit

(** [diff a b]: points covered in [a] but not in [b] — e.g. what a
    guided fuzz run reached that the unguided run did not. *)
val diff : t -> t -> (dim * string) list

(** {1 JSON}

    The [fj-cover/1] encoding. {!to_json} is complete (every nonzero
    point count); {!of_json} reads it back exactly, so maps can be
    aggregated across processes. *)

(** [{schema: "fj-cover/1", universe, covered, percent, unknown_hits,
    axioms: {covered, total, percent, never: [tick...]}, dims: {<dim>:
    {total, covered, percent, points: {<point>: count}}}, never_fired:
    [<dim>/<point>...]}] — [points] lists nonzero counts only. *)
val to_json : t -> Telemetry.Json.t

(** Compact form for trajectory files: {!to_json} without the
    per-point counts and the never-fired listing. *)
val summary_json : t -> Telemetry.Json.t

(** Parse {!to_json} output back into a map. [Error] on a wrong
    schema tag or a point name outside the universe. *)
val of_json : Telemetry.Json.t -> (t, string) result

(** Count-for-count equality (including unknown hits). *)
val equal : t -> t -> bool

(** One line per dimension plus the axiom gate, e.g.
    [ticks      62/81  76.5%]. *)
val pp_summary : Format.formatter -> t -> unit
