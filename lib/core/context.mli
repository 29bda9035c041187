(** The per-compilation context.

    A compilation's implicit state lives in six domain-local slots,
    each installed for the dynamic extent of one compile: the
    {!Ident} unique supply, the {!Telemetry} tick counters and tick
    observer, the {!Span} collector, the {!Metrics} registry and the
    {!Decision} ledger. The passes themselves keep no module-level
    state. {!Pipeline.run_report} installs the collectors, and
    {!Guard}'s fuel meter and the service's deadline watchdog install
    observers; the supply is installed here, because parsing and
    elaboration allocate uniques before the pipeline runs.

    Two workers interleaving [fresh] calls on one shared supply would
    make unique allocation (and therefore every binder name in the
    output) depend on scheduling. Each compile request instead runs
    inside {!with_fresh}, which installs a fresh supply on the worker
    domain that happens to execute it. Identical source then compiles
    to byte-identical Core under any [--jobs] level, because every
    request starts from the same supply state and nothing leaks
    between requests. *)

(** [with_fresh f] runs one compilation under a fresh unique supply
    (the state of a newly started process, which is what makes runs
    reproducible) — the per-request entry point of the compile
    service. *)
val with_fresh : (unit -> 'a) -> 'a
