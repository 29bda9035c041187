(** A bounded multi-producer multi-consumer queue with explicit
    load-shedding — the compile service's admission control.

    The queue never blocks a producer: {!try_push} on a full queue
    returns [`Shed] immediately, and the caller turns that into a
    structured rejection (overload must produce an explicit refusal,
    never a hang). Consumers block in {!pop} until an item arrives or
    the queue is {!close}d and drained.

    All operations are safe to call from any domain. *)

type 'a t

(** [create ~capacity] — [capacity] bounds the queued items (must be
    positive). *)
val create : capacity:int -> 'a t

(** Admit an item, or refuse: [`Shed] when the queue is at capacity,
    [`Closed] after {!close}. Never blocks. *)
val try_push : 'a t -> 'a -> [ `Ok | `Shed | `Closed ]

(** Next item, first in first out; blocks while the queue is empty and
    open. [None] once the queue is closed {e and} drained — the
    consumer's signal to exit. *)
val pop : 'a t -> 'a option

(** Stop admissions. Blocked consumers drain what remains, then get
    [None]. Idempotent. *)
val close : 'a t -> unit
