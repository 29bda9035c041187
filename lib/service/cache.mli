(** The compile service's content-addressed, integrity-checked cache.

    {b Entries.} An entry is an opaque payload string filed under a
    {e key}: a list of strings whose NUL-separated concatenation is
    md5-hashed into the entry's address. The caller puts into the key
    everything that can change the payload, and supplies the payload's
    codec ({!find}'s [decode]). The cache owns the rest: the digest
    check, quarantine, the atomic publish and the ["service/cache"]
    fault.

    {b The request entry.} The service ([Service.process_one]) files
    one entry per request, keyed on [(format tag, configuration
    fingerprint at the Full rung, input kind (.fj or .sexp), source
    bytes)]. The payload is what the request's artifacts carry, in
    the service's own positional codec: a header line of counts, the
    output Sexp verbatim, then one line per tick and one per ledger
    event. A hit skips the front end, Lint and the whole pipeline.
    Only a clean result is stored: one compiled at the Full rung with
    no Guard incidents. An incident there can come from an armed pass
    fault, and it must not replay into a later clean run.

    {b The per-pass hook.} {!pass_cache} files one entry per pipeline
    pass, keyed on [(format version, fingerprint, pass label, supply
    position, Sexp encoding of the input tree)]. The Sexp encoding
    round-trips uniques exactly, and the supply position
    ({!Fj_core.Ident.counter_value} before the pass) pins the uniques
    the pass would allocate, so a replay leaves a warm compile
    byte-identical to a cold one. The service no longer installs it:
    every pass entry costs a serialisation, a digest and a parse,
    which is more than recompiling. It stays for fjbench's layer
    replay.

    {b Integrity.} Entries are written atomically (temp file + rename)
    as [<md5 of payload>\n<payload>]. Every read re-hashes the payload
    and compares; a mismatch — a truncated write, a flipped bit, the
    ["service/cache"] fault — {e quarantines} the entry (moves it to
    [quarantine/] for the post-mortem) and reports a miss, so a
    corrupt entry is recomputed, never served. A payload with a valid
    hash that [decode] refuses is quarantined the same way.

    {b Concurrency.} One [t] is shared by all worker domains. Stats
    are mutex-protected; file operations rely on rename atomicity
    (two domains storing the same key write identical bytes). *)

type t

(** [create ~dir ()] opens (creating directories as needed) a cache
    rooted at [dir]. *)
val create : dir:string -> unit -> t

(** [find t ~key ~decode] reads the entry filed under [key], checks
    its digest and decodes it. The payload is not copied out of the
    file's contents [s]: [decode s pos] reads it from [pos] to the end
    of [s]. A missing entry is a miss; a corrupt one, or one [decode]
    refuses, is quarantined and is a miss too. *)
val find :
  t -> key:string list -> decode:(string -> int -> 'a option) -> 'a option

(** [add t ~key payload] files [payload] under [key], unless an entry
    is already there. *)
val add : t -> key:string list -> string -> unit

(** The {!Fj_core.Pipeline.pass_cache} hook for one compilation, keyed under
    [fingerprint] (the caller's encoding of every behaviour-affecting
    flag) and decoding trees under [datacons]. The hook memoizes the
    serialization of the last input it saw, so build one per
    compilation and use it on one domain. *)
val pass_cache : t -> fingerprint:string -> datacons:Fj_core.Datacon.env -> Fj_core.Pipeline.pass_cache

type stats = {
  hits : int;
  misses : int;
  stores : int;
  quarantined : int;  (** Corrupt entries detected and set aside. *)
}

val stats : t -> stats

(** [{hits, misses, stores, quarantined, hit_rate}]. *)
val stats_json : t -> Fj_core.Telemetry.Json.t

(** [hits / (hits + misses)]; 0 when no lookups have happened. *)
val hit_rate : t -> float

(** Quarantined entry files currently on disk (absolute paths). *)
val quarantine_entries : t -> string list
