(** The fault-tolerant compile service: [fjc batch] / [fjc serve].

    Each request is one source file compiled under an explicit
    per-compilation context ({!Fj_core.Context}): its own unique
    supply, its own collectors — so identical inputs produce
    byte-identical Core, tick counts, and decision ledgers at any
    [--jobs] level, cold or warm cache.

    {b Failure taxonomy.} A {e permanent} failure (unreadable file,
    parse error, ill-typed program) is a structured rejection,
    immediately. A {e transient} failure (deadline expiry, an injected
    fault, a crashing optimizer pass under [Strict]) is retried with
    deterministic jittered exponential backoff; when a rung's attempts
    are exhausted the request {e degrades}: the full requested
    pipeline, then the [Baseline] pass set, then parse+typecheck only
    — each step a recorded {!failure}. A request whose handling
    crashes outright is rerun in place by the worker that saw it, each
    crash a [pool] failure on its own outcome, and dropped at the third
    crash. Nothing hangs: overload is shed at admission
    ({!Workqueue}), deadlines are watchdogged ({!Budget}), and every
    admitted request ends in exactly one {!outcome}. *)

type rung = Full | Degraded | Check_only

val rung_name : rung -> string

(** One absorbed transient failure. *)
type failure = {
  f_rung : string;
  f_attempt : int;
      (** 0-based attempt index within the rung; for a [pool] crash,
          the request's own crash index. *)
  f_cause : string;  (** ["deadline" | "injected" | "exn" | "worker-crash"]. *)
  f_detail : string;
  f_backoff_ms : float;  (** Backoff slept after this failure. *)
}

(** A successful compilation (possibly degraded). [a_output] is the
    round-trippable Sexp of the final Core — with [a_ticks],
    [a_decisions], and [a_incidents], exactly the deterministic
    fields the [.meta.json] files carry. *)
type attempt_ok = {
  a_rung : rung;
  a_output : string;
  a_output_size : int;
  a_ticks : (string * int) list;
  a_decisions : Fj_core.Decision.event list;
  a_incidents : Fj_core.Guard.incident list;
}

type status =
  | Compiled of attempt_ok
  | Rejected of { kind : string; detail : string }  (** Permanent. *)
  | Exhausted of { last : string }
      (** Every rung failed every attempt — still a structured result. *)
  | Shed  (** Refused at admission: the queue was full. *)
  | Dropped of { reason : string }  (** Abandoned by a shutdown drain. *)

val status_name : status -> string

type outcome = {
  id : string;
  path : string;
  status : status;
  failures : failure list;  (** Oldest first. *)
  ms : float;  (** Wall clock (not deterministic; kept out of meta). *)
}

type config = {
  jobs : int;
  queue_capacity : int;
  attempts_per_rung : int;  (** ≥ 1. *)
  backoff_base_ms : float;
  backoff_max_ms : float;
  seed : int;  (** Determinises the backoff jitter. *)
  budget : Budget.spec;
  pipeline : Fj_core.Pipeline.config;
      (** Template for the [Full] rung; [limits], [datacons] and
          [cache] are overridden per request (the service installs no
          per-pass cache). *)
  no_prelude : bool;
  cache : Cache.t option;  (** One verified entry per request. *)
  isolate : bool;  (** Fork one child process per attempt. *)
}

val default_config : unit -> config

(** Deterministic jittered exponential backoff:
    [min max_ms (base * 2^attempt * (1 + jitter))] with jitter in
    [[0, 0.5)] drawn from a hash of [(seed, id, rung, attempt)] — two
    runs with the same seed back off identically; two requests with
    the same seed do not stampede in lockstep. *)
val backoff_ms :
  base_ms:float ->
  max_ms:float ->
  seed:int ->
  id:string ->
  rung:string ->
  attempt:int ->
  float

(** The cache fingerprint for a rung of this configuration: every
    flag that can change what a compile produces. *)
val fingerprint : config -> rung -> string

(** The request cache's payload: LF-terminated lines of TAB-separated
    fields. A header line holds [a_output_size], the output's length
    in bytes and the tick and event counts; the output follows
    verbatim on its own line, then one [NAME N] line per tick and one
    line per ledger event ({!Fj_core.Decision.write_fields}).

    Only a clean result is stored, so [encode_attempt] is [None] for a
    rung other than [Full], for any incident, and for a tick name,
    pass or site holding a TAB or a LF. *)
val encode_attempt : attempt_ok -> string option

(** [decode_attempt s pos] decodes the payload that [s] holds from
    [pos] on, rebuilding [a_rung = Full] and [a_incidents = []]. All
    or nothing: every count, length, name and integer (as
    [string_of_int] spells it) must read back, and no byte may follow
    the last line; anything else is [None]. *)
val decode_attempt : string -> int -> attempt_ok option

(** Run one request through the retry/degrade ladder on the calling
    domain. The source is read once, and every attempt compiles those
    bytes. With [cache] set, the request first looks up its one entry
    (keyed on the {!fingerprint} at [Full], the input kind and the
    source bytes, see {!Cache}); a verified hit is the outcome, with
    no front end, Lint or pipeline run. On a miss the result is stored
    only if it compiled at [Full] with no incidents. Never raises —
    except an armed ["service/worker"] fault, which escapes
    {e deliberately} so the crash rerun of {!run_batch} and {!serve}
    is exercised. *)
val process_one : config -> id:string -> path:string -> outcome

type batch = {
  b_outcomes : outcome list;  (** Sorted by id; one per source. *)
  b_respawns : int;
      (** Worker crashes: the [pool]/[worker-crash] failures across
          the outcomes. *)
  b_wall_ms : float;
  b_shutdown : Shutdown.reason option;
      (** A drain was triggered mid-batch by SIGINT/SIGTERM. *)
}

(** Compile a batch of [(id, path)] sources. Admission is performed
    up front (so the shed set depends only on capacity and input
    order, not scheduling), then [jobs] workers drain the queue.
    Polls {!Shutdown.requested}: after a signal, in-flight requests
    finish, the rest drain as [Dropped], and partial results are still
    returned. *)
val run_batch : config -> (string * string) list -> batch

(** Write a batch's artifacts under [dir]: per-request [<id>.sexp] and
    [<id>.meta.json] (deterministic fields only — byte-comparable
    across [--jobs] levels and cold/warm cache), plus [results.json]
    ([fj-batch/1]: rows, cache stats, respawns, wall-clock). *)
val write_batch : config -> dir:string -> batch -> unit

(** The [results.json] document. *)
val batch_json : config -> batch -> Fj_core.Telemetry.Json.t

(** The batch exit code: shutdown code (130/143) if a drain was
    triggered, else 3 if anything was shed, else 1 if anything was
    rejected/exhausted/dropped, else 0. *)
val batch_exit_code : batch -> int

(** A filesystem path squashed to a filename-safe request id
    (anything outside [[A-Za-z0-9._-]] becomes ['_']). *)
val sanitize_id : string -> string

(** The JSON document of one {!serve} response line. *)
val response_json : outcome -> Fj_core.Telemetry.Json.t

(** [serve cfg ~input ~output] runs the newline-delimited request
    protocol: each request line is [PATH] or [ID\tPATH]; each response
    line is one JSON object [{id, status, rung?, output?, error?,
    detail?}] (responses may interleave across requests; match on
    [id]). Returns on EOF or shutdown signal, after draining. *)
val serve :
  config -> input:in_channel -> output:out_channel -> Shutdown.reason option

(** Accept loop on a Unix-domain socket, one client at a time, same
    protocol as {!serve}. Returns on shutdown signal. *)
val serve_socket : config -> path:string -> Shutdown.reason option
