(** The optimization decision ledger: every accepted {e and rejected}
    rewrite, with its site and a structured reason.

    {!Telemetry} ticks count what the optimizer {e did}; this module
    records what it {e decided} — including the refusals that today
    would silently fall through (an inline skipped because the
    unfolding is too big, a candidate not contified because one
    occurrence escapes under a lambda, …). Modelled on GHC's
    [-ddump-inlinings]/[-ddump-rule-rejections] decision dumps.

    Collection follows the {!Telemetry.with_counters} discipline: a
    pipeline run installs a {!t} with {!with_ledger}, every pass
    {!record}s into it without threading state, and {!record} is a
    no-op when no ledger is installed (so bare pass invocations in
    tests pay nothing).

    Sites are binder name hints ({!Ident.site}) — the same provenance
    labels the allocation profiler uses — so a decision in optimised
    code maps back to the source binding the user asked about. *)

(** What kind of rewrite was being considered. *)
type action =
  | Inline  (** Splice an unfolding at a call site (Simplify). *)
  | Pre_inline
      (** Substitute a once-used / trivial rhs
          (preInlineUnconditionally). *)
  | Dup_alt
      (** Copy a case alternative when duplicating a continuation
          (vs sharing it via [Share_alt]). *)
  | Demote  (** Demote a join binding to a let (baseline simplifier). *)
  | Contify  (** Rebind a let as a join point (Fig. 5). *)
  | Cse  (** Replace a repeated expression by its earlier binder. *)
  | Strict_let  (** Turn a demanded lazy let strict (Demand). *)
  | Strict_arg  (** Force a strict call/jump argument early (Demand). *)
  | Spec_constr  (** Specialise a recursive join to a call pattern. *)
  | Float_in  (** Sink a binding towards its use site. *)
  | Float_out  (** Hoist a binding past a lambda. *)

(** Stable external name, e.g. [Inline] -> ["inline"]. *)
val action_name : action -> string

(** Why a rewrite was refused. The payloads quote the facts the guard
    actually tested (sizes and thresholds, occurrence counts), so the
    refusal can be reproduced and reasoned about. *)
type reason =
  | Inline_too_big of { size : int; threshold : int }
      (** [size u > inline_threshold] at the call site. *)
  | Uninformative_context
      (** The unfolding is small enough, but the use site is not a
          context the unfolding's WHNF would reduce with. *)
  | Occurs_many of { count : int }
      (** Multi-use, non-trivial rhs: pre-inlining would duplicate
          code; left for call-site inlining to consider. *)
  | Escapes_under_lambda
      (** An occurrence sits under a lambda: inlining (or treating the
          occurrence as a tail call) would duplicate work. *)
  | Loop_breaker
      (** Recursive binder: never recorded as an unfolding, so never
          inlined (GHC's loop breakers). *)
  | Dup_threshold_shared of { size : int; threshold : int }
      (** Alternative larger than [dup_threshold]: shared as a join
          point (or a let-bound function in baseline mode) instead of
          being copied. *)
  | Not_all_tail_calls
      (** Contify: some occurrence is not a saturated tail call. *)
  | Shape_mismatch
      (** Contify: occurrences are tail calls but disagree on the
          (n_ty, n_val) argument shape. *)
  | Rhs_arity_mismatch
      (** Contify: the rhs does not strip to the occurrence shape's
          binder prefix. *)
  | Nullary_candidate
      (** Contify: shape (0,0) with several uses — a join point would
          re-evaluate per jump what the let shares (deliberate
          divergence from Fig. 5; see DESIGN.md). *)
  | Scope_type_mismatch
      (** Contify: the stripped body's type differs from the scope's
          (the Fig. 5 proviso). *)
  | Already_whnf
      (** Demand: the demanded rhs is already a value (or trivial) —
          nothing to force. *)
  | No_common_constructor
      (** SpecConstr: no argument position receives the same
          constructor at every jump. *)
  | No_unique_use_site
      (** Float In: no single branch/scrutinee to sink the binding
          into. *)
  | Mentions_lambda_binder
      (** Float Out: the rhs depends on the enclosing lambda's binder,
          so it cannot be hoisted past it. *)

(** Stable external name, e.g. ["inline_too_big"] (payloads omitted). *)
val reason_name : reason -> string

(** Human narrative, e.g. ["size 74 > threshold 60"]. *)
val pp_reason : Format.formatter -> reason -> unit

type verdict = Fired | Rejected of reason

(** One decision: which pass considered which rewrite at which site,
    and what it concluded. *)
type event = {
  d_pass : string;  (** The deciding pass, e.g. ["simplify"]. *)
  d_action : action;
  d_site : string;  (** {!Ident.site} of the binder concerned. *)
  d_verdict : verdict;
}

(** {1 Collection} *)

(** An append-only ledger for one pipeline run. *)
type t

val create : unit -> t

(** [with_ledger l f] installs [l] as the current ledger for the
    dynamic extent of [f]; nesting saves and restores. *)
val with_ledger : t -> (unit -> 'a) -> 'a

(** Is a ledger currently installed? Passes use this to skip
    {e computing} a verdict's facts when nobody is listening. *)
val enabled : unit -> bool

(** Append one event to the innermost installed ledger; a no-op when
    none is installed. *)
val record : pass:string -> action -> site:string -> verdict -> unit

(** Append a pre-built event verbatim — the pass cache's replay hook:
    a cache hit re-records the stored events so cold and warm compiles
    carry byte-identical ledgers. No-op when no ledger is installed. *)
val record_event : event -> unit

(** {1 Reading} *)

(** Events in the order they were recorded. *)
val events : t -> event list

val length : t -> int

(** A position in the ledger, for per-pass deltas. *)
type snapshot

val snapshot : t -> snapshot

(** Events recorded since the snapshot, oldest first. *)
val events_since : snapshot -> t -> event list

(** {1 Summaries} *)

val fired : event list -> int
val rejected : event list -> int

(** Rejection counts keyed by {!reason_name}, sorted by name. *)
val reason_counts : event list -> (string * int) list

(** Counts keyed ["action:verdict"] or ["action:rejected:reason"],
    sorted by key — the per-pass decision summary. *)
val summary : event list -> (string * int) list

(** {1 JSON} *)

(** [{pass, action, site, verdict}] plus, for rejections, [reason] and
    its payload fields ([size], [threshold], [count]). *)
val event_json : event -> Telemetry.Json.t

(** The exact inverse of {!event_json}; [None] on an unknown shape.
    Used by the per-pass cache hook to round-trip ledger entries
    through disk. *)
val event_of_json : Telemetry.Json.t -> event option

(** [{fired, rejected, counts: {key: n}}] over the given events. *)
val summary_json : event list -> Telemetry.Json.t

(** {1 Positional fields}

    The request cache's ledger records ([Service]'s entry codec): an
    event as a fixed sequence of fields, with no field names. The
    caller owns the layout (separators, line ends, how an integer is
    spelled); this module owns the order. Both decoders, this one and
    {!event_of_json}, read a reason's name through one table. *)

(** [write_fields ~field ~int e] writes [e]'s fields in order: pass,
    action, site, verdict, and for a rejection the reason's
    {!reason_name} and its integers (size then threshold, or
    count). *)
val write_fields : field:(string -> unit) -> int:(int -> unit) -> event -> unit

(** The inverse of {!write_fields}: each call of [field] or [int]
    returns the next field. [None] on an unknown action, verdict or
    reason name; the caller checks that nothing follows the last
    field. *)
val read_fields :
  field:(unit -> string) -> int:(unit -> int) -> event option
