(** Executor for the block IR with instruction/allocation counters:
    [Goto] binds parameters and transfers — zero allocation; calls go
    through heap-allocated closures (eval/apply, PAPs). Statistics
    share the {!Fj_core.Mstats} shape with the Fig. 3 machine
    ([steps] = instructions, [jumps] = gotos, [joins_entered] =
    [LetBlock]s, [updates] = 0); [?profile] fills the same per-site
    {!Fj_core.Profile}. *)

type stats = Fj_core.Mstats.t = {
  mutable steps : int;
  mutable objects : int;
  mutable words : int;
  mutable jumps : int;
  mutable joins_entered : int;
  mutable calls : int;
  mutable updates : int;
  mutable max_stack : int;
}

val pp_stats : Format.formatter -> stats -> unit

type value

exception Stuck of string
exception Out_of_fuel

val run :
  ?fuel:int -> ?profile:Fj_core.Profile.t -> Blockir.program -> value * stats

(** First-order view, comparable with the core evaluator's. *)
val tree_of_value : value -> Fj_core.Eval.tree
