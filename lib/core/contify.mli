(** Contification: inferring join points from tail-called let bindings
    (Sec. 4, Fig. 5 of the paper).

    Contified-binding counts are reported per-invocation via
    {!Telemetry} ([Contified] and [Contified_group] ticks); install a
    collector with {!Telemetry.with_counters} around the call — or use
    {!contify_counted} — to read them. There is deliberately no global
    mutable counter any more. *)

(** One walk turning every eligible [let] into a [join]: every
    occurrence must be a saturated tail call of consistent shape, the
    right-hand side must supply matching binders, and the stripped
    body must have the scope's type (the Fig. 5 proviso). Idempotent,
    typing- and meaning-preserving. Each binding is decided from a
    mutable cell per binder that gathers its occurrences in the
    contified scope as the walk meets them; no usage map is built.
    Binders are assumed unique: none reuses the unique of an enclosing
    [let]. *)
val contify : Syntax.expr -> Syntax.expr

(** [contify] plus this invocation's count of contified bindings — a
    convenience for callers that are not running under a pipeline
    telemetry collector. *)
val contify_counted : Syntax.expr -> Syntax.expr * int
