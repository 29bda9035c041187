(** Fault injection: armable named failure points inside the
    Core-to-Core passes, so the {!Guard} recovery machinery is
    testable.

    Each optimisation pass threads its result through a named
    {!point}. Unarmed points are identity and cost one table lookup;
    an armed point misbehaves in one of four characteristic ways —
    the exact failure modes the pass harness must contain:

    - [Raise]: the pass throws;
    - [Ill_typed]: the pass returns a tree that breaks the Fig. 2
      typing rules (caught by the lint gate);
    - [Burn_fuel]: the pass spins, spending fuel through
      {!Telemetry.notify} until the budget cuts it off (a "runaway
      simplifier");
    - [Grow]: the pass returns a well-typed but size-exploded tree
      (caught by the size ceiling).

    The registry is global mutable state (the points live inside pass
    code with no configuration path); use {!with_armed} to scope the
    arming, and {!fired} to assert a point actually triggered. The
    whole registry is mutex-protected: the compile service arms points
    before spawning workers, but every worker domain consults (and,
    with a fire limit, decrements) the table concurrently.

    Beyond the pass points, three {e service-layer} points exercise
    the compile-service robustness machinery; they are consulted via
    {!trigger} (the caller implements the misbehaviour, since it is
    not a tree transformation):

    - ["service/worker"] — the worker loop crashes mid-request
      ([Raise]; any other behaviour is treated the same), proving the
      crash rerun: the request is run again, and dropped at its third
      crash;
    - ["service/cache"] — the cache write path corrupts the entry body
      on disk, proving integrity verification: quarantine + recompute,
      never serve;
    - ["service/slow-pass"] — the request burns its wall-clock
      deadline, proving the watchdog: deadline expiry is a transient
      failure with retry/degrade, never a hang. *)

type behaviour = Raise | Ill_typed | Burn_fuel | Grow

val behaviour_name : behaviour -> string

(** Raised by a point armed with [Raise]. *)
exception Injected of string

(** Every failure point compiled into the passes, in display order. *)
val points : string list

(** The tree-valued pass points ({!point}). *)
val pass_points : string list

(** Arm a point. [limit] (if given, positive) bounds how many times
    the point fires before auto-disarming — the syntax for injecting
    a {e transient} fault the retry path must absorb, as opposed to a
    permanent one it cannot.
    @raise Invalid_argument on an unknown point name. *)
val arm : ?limit:int -> string -> behaviour -> unit

(** Parse a [--fault] spec: [POINT:BEHAVIOUR] or [POINT:BEHAVIOUR:N]
    (fire at most [N] times). *)
val parse_spec : string -> (string * behaviour * int option, string) result

val disarm : string -> unit

(** Points that have triggered (acted while armed) since the last
    {!reset_fired}. *)
val fired : unit -> string list

val reset_fired : unit -> unit

(** [with_armed arms f] arms the given points for the dynamic extent
    of [f] (clearing the fired set first), then restores the previous
    arming. *)
val with_armed : (string * behaviour) list -> (unit -> 'a) -> 'a

(** The hook the passes call: [point name e] returns [e] unless [name]
    is armed, in which case it misbehaves per the armed behaviour.
    @raise Invalid_argument on an unknown point name, so a typo in a
    pass cannot silently create an unarmable point. *)
val point : string -> Syntax.expr -> Syntax.expr

(** The hook the service layer calls: [trigger name] claims one firing
    of [name] if armed (burning a unit of its fire budget, recording
    it in {!fired}) and returns the behaviour for the {e caller} to
    enact — service misbehaviours (crash the worker, corrupt the
    bytes, burn the deadline) are not tree transformations, so the
    registry cannot enact them itself.
    @raise Invalid_argument on an unknown point name. *)
val trigger : string -> behaviour option
