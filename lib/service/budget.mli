(** Per-request resource budgets: wall-clock deadline, tick fuel, and
    term-size ceiling.

    Fuel and size ride the existing {!Fj_core.Guard.limits} machinery (they
    are per-pass budgets enforced by {!Fj_core.Guard.protect} under the
    [Recover] policy, or by the fuel cutoff under any policy). The
    wall-clock deadline is this module's own: a {e cooperative
    watchdog} installed as a {!Fj_core.Telemetry} tick observer — the
    optimizer ticks on every rewrite, so a runaway pass is interrupted
    within a few rewrites of the deadline; code that does not tick
    (parsing, I/O) is covered by explicit {!check} calls at phase
    boundaries. Observers stack ({!Fj_core.Telemetry.with_observer}), so the
    watchdog keeps firing inside a pass whose Guard fuel meter is also
    installed.

    Deadline expiry raises {!Deadline_exceeded} — a {e transient}
    failure in the service's taxonomy: the request is retried with
    backoff and eventually degraded, never hung. *)

(** The configured bounds (durations, not absolute times). *)
type spec = {
  wall_ms : float option;  (** Per-attempt deadline; [None] = none. *)
  fuel : int option;  (** Per-pass tick budget ({!Fj_core.Guard.limits}). *)
}

(** No deadline; fuel from {!Fj_core.Guard.default_limits}. *)
val default_spec : spec

(** The {!Fj_core.Guard.limits} embedding of a spec's fuel, with the
    size ceiling of {!Fj_core.Guard.default_limits}. *)
val limits : spec -> Fj_core.Guard.limits

exception Deadline_exceeded of { wall_ms : float }

(** One armed attempt: the spec plus an absolute monotonic deadline
    fixed at {!start}. *)
type t

val start : spec -> t

(** Raise {!Deadline_exceeded} if the deadline has passed. Call at
    phase boundaries (after load, after the pipeline). *)
val check : t -> unit

val expired : t -> bool

(** [with_watchdog b f] runs [f] with a tick observer that {!check}s
    the clock every few dozen ticks. *)
val with_watchdog : t -> (unit -> 'a) -> 'a

(** Busy-wait (in short sleeps) until the deadline has passed — how
    the ["service/slow-pass"] fault burns a request's deadline. Sleeps
    at most [cap_ms] (default 500) so an undeadlined request is never
    stalled for long. *)
val burn : ?cap_ms:float -> t -> unit
