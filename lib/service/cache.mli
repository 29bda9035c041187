(** The content-addressed pass cache behind {!Fj_core.Pipeline.pass_cache}.

    {b Keying.} A cached entry is addressed by the digest of
    [(format version, configuration fingerprint, pass label, supply
    position, Sexp encoding of the input tree)]. Every component
    matters for the byte-identical warm-compile guarantee:

    - the {e Sexp encoding} round-trips uniques exactly, so two
      structurally-equal trees with different binder numbering are
      (correctly) different keys;
    - the {e supply position} ({!Fj_core.Ident.counter_value} before the pass)
      pins what uniques the pass would have allocated — replaying an
      entry recorded at a different supply position would renumber
      fresh binders and desynchronise the warm compile;
    - the {e fingerprint} carries everything else that can change a
      pass's behaviour (mode, thresholds, policy, budget, rung), owned
      by the caller.

    {b Integrity.} Entries are written atomically (temp file + rename)
    as [<md5 of payload>\n<payload>]. Every read re-hashes the payload
    and compares; a mismatch — a truncated write, a flipped bit, the
    ["service/cache"] fault — {e quarantines} the entry (moves it to
    [quarantine/] for the post-mortem) and reports a miss, so a
    corrupt entry is recomputed, never served. Unparseable payloads
    with a valid hash are quarantined the same way.

    {b Concurrency.} One [t] is shared by all worker domains. Stats
    are mutex-protected; file operations rely on rename atomicity
    (two domains storing the same key write identical bytes). *)

type t

(** [create ~dir ()] opens (creating directories as needed) a cache
    rooted at [dir]. *)
val create : dir:string -> unit -> t

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
