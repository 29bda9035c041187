(** A seeded generator of random {e well-typed} F_J programs
    (including join points, jumps, and bounded recursive loops), and a
    greedy structural shrinker — the substrate of the [fjc fuzz]
    differential harness and of the property-based test suite.

    Programs are closed, Lint-clean by construction, and total up to
    the evaluator's fuel (recursive joins loop over a strictly
    decreasing counter). Generation is a pure function of the
    {!Random.State.t} {e and} of the {!Ident} fresh-name supply:
    {!program_of_seed} pins both, so a printed seed replays to the
    byte-identical program in another process. *)

(** Generation size budget (the [n] driving the recursion); the
    default used by [fjc fuzz] and the property suite. *)
val default_size : int

(** Generate one program: a random result type, then a term of that
    type. Deterministic in the RNG state and the current {!Ident}
    supply. *)
val program : ?size:int -> Random.State.t -> Syntax.expr

(** [program_of_seed ~size seed] resets the {!Ident} fresh-name
    counter, seeds a fresh RNG with [seed], and generates — the
    reproducible entry point. {b Drop all previously generated terms
    first}: resetting the supply makes their uniques collidable. *)
val program_of_seed : ?size:int -> int -> Syntax.expr

(** [mutate st e] produces a type-preserving random mutation of a
    {e closed, well-typed} program: an integer literal regenerated
    into a small expression, or the whole program wrapped in a fresh
    binding, branch, join point, or bounded loop. The substrate of
    coverage-guided fuzzing ({!Fuzz}): an interesting seed is mutated
    rather than regenerated, so generation is steered toward the
    neighbourhood of programs that reached new coverage points.

    The result is closed and has the seed's type. {b Uniques}: fresh
    binders come from the global {!Ident} supply, so the supply must
    be beyond every unique in [e] (re-reading the program through
    {!Sexp.read} guarantees this); [mutate] never resets the
    supply. *)
val mutate : Random.State.t -> Syntax.expr -> Syntax.expr

(** Shrink candidates of a program: at the root and, in place, inside
    every subterm, the subterm's own subterms, let-elimination by
    substitution and case-branch selection. A candidate inside a
    subterm keeps only variables that subterm already had free, so no
    candidate has a free variable the input lacks (a closed program's
    candidates are closed) and none is larger than the input.
    Candidates are {e not} guaranteed well-typed; filter with
    {!Lint.well_typed}. *)
val shrink : Syntax.expr -> Syntax.expr list

(** [minimize ~failing e] greedily applies {!shrink} while candidates
    keep [failing] true (callers also bake well-typedness into
    [failing]), up to [steps] rounds (default 500). Returns a local
    minimum: no candidate both shrinks it and still fails. *)
val minimize : ?steps:int -> failing:(Syntax.expr -> bool) -> Syntax.expr -> Syntax.expr
