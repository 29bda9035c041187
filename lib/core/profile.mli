(** Runtime allocation profiler: per-site cost attribution (GHC
    cost-centre style) plus a bounded ring buffer of machine events.
    Sites are binder name hints ({!Ident.site}), which the optimiser
    preserves — so allocations in optimised code map back to source
    bindings, and the join-point claim is checkable per site: a
    [Join]-kinded site never accumulates words. *)

(** The site charged outside any labelled cost centre. *)
val main_site : string

type kind = Thunk | Closure | Con | Pap | Join

val kind_name : kind -> string

type site = {
  site_label : string;
  mutable site_kind : kind;
  mutable s_objects : int;
  mutable s_words : int;
  mutable s_steps : int;
  mutable s_jumps : int;
  mutable s_updates : int;
  mutable s_entries : int;
}

type event =
  | EEnter of string
  | EAlloc of string * int
  | EJump of string
  | EUpdate of string

val event_equal : event -> event -> bool

type t

val default_trace_cap : int

(** [create ~trace_cap ()] — [trace_cap] bounds the event ring buffer
    (default {!default_trace_cap}; [0] disables the trace). *)
val create : ?trace_cap:int -> unit -> t

(** {1 Attribution — called by the machines} *)

val alloc : t -> label:string -> kind:kind -> words:int -> unit
val step : t -> string -> unit
val enter : t -> string -> unit
val jump : t -> string -> unit
val update : t -> string -> unit

(** Register a join label (zero words) even if never jumped to. *)
val join_bind : t -> string -> unit

(** {1 Reading} *)

val find : t -> string -> site option
val total_words : t -> int

(** All sites, heaviest first (deterministic order). *)
val sites : t -> site list

val join_sites : t -> site list

(** Retained trace events, oldest first. *)
val events : t -> event list

(** Events evicted by the ring bound. *)
val dropped : t -> int

(** {1 JSON} *)

val events_json : t -> Telemetry.Json.t
val events_of_json : Telemetry.Json.t -> (event list, string) result

(** The whole profile; [?stats] inlines the machine's aggregate
    counters under ["machine"]. *)
val to_json : ?stats:Mstats.t -> t -> Telemetry.Json.t
