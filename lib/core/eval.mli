(** The abstract machine of Fig. 3 with allocation accounting:
    call-by-name (as in the figure) and call-by-need (update frames).
    Join bindings capture the stack; a jump truncates back to it —
    neither allocates. Constructors cost [1 + n] words, closures and
    thunks 2; literals, nullary constructors and join points are
    free. Statistics use the machine-neutral {!Mstats} shape shared
    with the block machine; [?profile] attaches a per-site
    {!Profile}. *)

type mode = By_name | By_need

type stats = Mstats.t = {
  mutable steps : int;
  mutable objects : int;
  mutable words : int;  (** The Table 1 metric. *)
  mutable jumps : int;
  mutable joins_entered : int;
  mutable calls : int;
  mutable updates : int;
  mutable max_stack : int;
}

val pp_stats : Format.formatter -> stats -> unit

(** Machine values (weak head normal forms). *)
type value

(** Machine environments. *)
type env

exception Stuck of string
exception Out_of_fuel

(** Run an expression to WHNF. Defaults: call-by-need, unlimited fuel,
    empty environment, no profiler. *)
val eval :
  ?mode:mode ->
  ?fuel:int ->
  ?env:env ->
  ?profile:Profile.t ->
  Syntax.expr ->
  value * stats

(** A fully-forced first-order view of a value. *)
type tree = TLit of Literal.t | TCon of string * tree list | TFun

(** Deep-force a value (functions print as [TFun]). *)
val force_deep : ?depth:int -> ?fuel:int -> value -> tree

val equal_tree : tree -> tree -> bool

(** Where two trees first disagree: a path from the root (e.g.
    ["at root.1.0: Cons/2 vs Nil/0"]); [None] when equal. *)
val tree_mismatch : tree -> tree -> string option

val pp_tree : Format.formatter -> tree -> unit

(** Evaluate and deep-force a closed expression. Neither the
    statistics nor the profile include the observation forcing. *)
val run_deep :
  ?mode:mode -> ?fuel:int -> ?profile:Profile.t -> Syntax.expr -> tree * stats

(** The three ways a fuel-bounded run can end, reified. *)
type outcome =
  | Finished of tree * stats
  | Fuel_exhausted  (** The fuel budget ran out ({!Out_of_fuel}). *)
  | Crashed of string  (** The machine got {!Stuck}; the message. *)

(** {!run_deep} with {!Out_of_fuel} and {!Stuck} captured as outcomes
    rather than exceptions — so a divergent generated program cannot
    wedge a harness. *)
val run_outcome :
  ?mode:mode -> ?fuel:int -> ?profile:Profile.t -> Syntax.expr -> outcome
