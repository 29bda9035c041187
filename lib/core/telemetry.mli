(** Compiler telemetry: simplifier ticks, per-pass counters, and a
    tiny JSON substrate for structured traces.

    Modelled on GHC's simplifier ticks ([-ddump-simpl-stats]): every
    rewrite the optimizer performs is counted under a stable name, one
    per Fig. 4 axiom plus the derived forms the passes implement. The
    counters are {e per-invocation}: a pipeline run installs a fresh
    {!counters} with {!with_counters}, every pass reports into it via
    {!tick}, and nothing leaks across runs — unlike the old
    per-module global mutable [stats] records. *)

(** One named rewrite. The first group is the Fig. 4 equational theory
    (and its derived forms) as fired by the Simplifier and Cleanup;
    the second group is the per-pass work counters. *)
type tick =
  | Beta  (** [beta]: value beta reduction. *)
  | Beta_tau  (** [beta_tau]: type beta reduction. *)
  | Inline  (** [inline]: call-site unfolding splice. *)
  | Pre_inline
      (** Once-used / trivial rhs substituted (GHC's
          preInlineUnconditionally); a work-safe [inline] + [drop]. *)
  | Drop  (** [drop]: dead value binding discarded. *)
  | Jinline  (** [jinline]: once-used join point inlined at its jump. *)
  | Jdrop  (** [jdrop]: dead join binding discarded. *)
  | Case_of_known  (** [case]: case of known constructor / literal. *)
  | Case_elim  (** Case on a known-evaluated variable elided. *)
  | Casefloat  (** [casefloat]: case context pushed past a binding. *)
  | Case_of_case  (** [commute] on a case scrutinee: case-of-case. *)
  | Jfloat  (** [jfloat]: continuation copied into join rhs(s). *)
  | Abort  (** [abort]: a jump discarded its evaluation context. *)
  | Commute  (** Other commuting conversion: context past a binding. *)
  | Constant_fold  (** Primop applied to literals, folded. *)
  | Share_alt
      (** Large case alternative shared as a join point (join mode) or
          a let-bound function (baseline). *)
  | Anf_con  (** Constructor rhs ANF-ised to keep fields shareable. *)
  | Demote
      (** Join binding demoted to a let (baseline simplifier only). *)
  | Contified  (** Contify: a binding became a join point. *)
  | Contified_group  (** Contify: a recursive group, as a whole. *)
  | Cse_shared  (** CSE: repeated expression replaced by its binder. *)
  | Strict_let  (** Demand: a demanded lazy let made strict. *)
  | Strict_arg  (** Demand: a strict call/jump argument forced early. *)
  | Spec_constr  (** SpecConstr: a recursive join specialised. *)
  | Float_in_moved  (** Float In: a binding sunk toward its use. *)
  | Float_out_moved  (** Float Out: bindings hoisted past a lambda. *)
  | Rule_fired  (** A user RULE rewrote a redex. *)

(** The stable external name of a tick (as it appears in tick tables
    and JSON traces), e.g. [Beta] -> ["beta"]. *)
val tick_name : tick -> string

(** Every tick, in display order. *)
val all_ticks : tick list

(** The inverse of {!tick_name}: [tick_of_name "beta" = Some Beta],
    [None] on an unknown name. Loaders of external encodings keyed by
    tick name (the [fj-cover/1] coverage maps, trace consumers) use
    this to map back into the closed universe. *)
val tick_of_name : string -> tick option

(** A per-invocation tick accumulator. *)
type counters

val create : unit -> counters

(** [with_counters c f] installs [c] as the current collector for the
    dynamic extent of [f] (nesting saves and restores the previous
    collector), so passes deep in the optimizer can {!tick} without
    threading state. *)
val with_counters : counters -> (unit -> 'a) -> 'a

(** Record [n] (default 1) firings of a tick into the innermost
    installed collector; a no-op when none is installed. *)
val tick : ?n:int -> tick -> unit

(** [with_observer h f] additionally calls [h n] on every {!tick} for
    the dynamic extent of [f], whether or not a collector is
    installed. Observers {e stack}: nesting runs the new observer and
    then the enclosing ones, so a wall-clock watchdog installed around
    a whole compilation keeps firing inside a pass whose {!Guard} fuel
    meter is also installed. Any observer may raise (that is the
    point); unwinding restores the enclosing chain. *)
val with_observer : (int -> unit) -> (unit -> 'a) -> 'a

(** [notify n] runs the installed observers as a tick of weight [n]
    would, without counting any tick; a no-op when none is installed. *)
val notify : int -> unit

val get : counters -> tick -> int

(** Sum over all ticks. *)
val total : counters -> int

(** All nonzero ticks as [(name, count)], in display order. *)
val nonzero : counters -> (string * int) list

(** An immutable copy of a collector's state, for per-pass deltas. *)
type snapshot

val snapshot : counters -> snapshot

(** Nonzero per-tick increments since the snapshot was taken. *)
val delta_since : snapshot -> counters -> (string * int) list

(** GHC-style ["Total ticks: n"] table (nonzero ticks only). *)
val pp_table : Format.formatter -> counters -> unit

(** {1 Clock} *)

(** Milliseconds since process start-up on the {e monotonic} clock:
    duration arithmetic ([now_ms () -. t0]) can never go negative
    under a wall-clock adjustment. Use for every duration. *)
val now_ms : unit -> float

(** Milliseconds since the Unix epoch (wall clock). Only for reporting
    an absolute timestamp; never subtract two of these. *)
val epoch_ms : unit -> float

(** {1 JSON}

    A hand-rolled JSON emitter and minimal parser — just enough for
    structured traces and their well-formedness checks, with no new
    dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (** Serialise (compact, valid JSON; strings escaped, non-finite
      floats emitted as [null]). *)
  val to_string : t -> string

  (** Minimal recursive-descent parser (objects, arrays, strings with
      escapes, numbers, booleans, null). *)
  val parse : string -> (t, string) result

  val is_well_formed : string -> bool
end

(** A [(name, count)] tick list as the JSON object [{name: count}], the
    shape of trace passes, [fj-meta/1] documents and cache payloads. *)
val ticks_json : (string * int) list -> Json.t

(** The inverse of {!ticks_json}, all or nothing: [None] unless the
    value is an object whose every value is an integer. *)
val ticks_of_json : Json.t -> (string * int) list option
