(** Graceful-shutdown signal plumbing for the long-running [fjc]
    modes ([batch], [serve], [fuzz] soaks).

    {!install} registers SIGINT and SIGTERM handlers that only set a
    flag (signal handlers run on the main domain at safepoints; doing
    more there is unsafe). The driving loop polls {!requested} and, on
    the first signal, {e drains}: stops admitting work, finishes what
    is in flight, flushes partial results / the flight recorder, and
    exits with the documented code — 130 for SIGINT, 143 for SIGTERM
    (the classic 128+signo convention). A {e second} signal skips the
    drain and exits immediately with the same code. *)

type reason = Interrupt  (** SIGINT *) | Terminate  (** SIGTERM *)

val reason_name : reason -> string

(** 130 for [Interrupt], 143 for [Terminate]. *)
val exit_code : reason -> int

(** Install the handlers (idempotent). Safe to call from the main
    domain only. *)
val install : unit -> unit

(** The first signal received since {!install}, if any. *)
val requested : unit -> reason option
