(** Common sub-expression elimination.

    Sec. 8 of the paper argues for direct style over CPS with CSE as
    the example: "In [f (g x) (g x)], the common sub-expression is easy
    to see. But it is much harder to find in the CPS version" — where
    the two calls are sequentialised into nested continuations with
    distinct continuation variables.

    This pass is that argument made concrete: because F_J is direct
    style, CSE is a straightforward traversal with a hash of the
    expressions seen on the current path. We keep it deliberately
    simple and manifestly sound:

    - only {e pure, terminating, closed-under-scope} candidates are
      shared (applications are pure here — the language has no effects
      — but may diverge, so we only share when a {e syntactically
      equal} computation is already bound in scope: replacing work with
      a variable reference can only reduce work);
    - candidates are keyed by {!Syntax.compare_expr}: two are the
      same exactly when they print the same, binders and free
      variables by their unique names;
    - [let]- and [case]-introduced bindings extend the environment;
      lambda/join boundaries keep it (sharing across a lambda is safe:
      the binding is forced at most once under call-by-need).

    Sharing is witnessed by replacing the repeated expression with the
    earlier binder, which the Simplifier can then exploit (e.g. the
    second [g x] disappears and its allocation with it). *)

open Syntax

(* Sharing counts are reported per-invocation via Telemetry
   ([Cse_shared] ticks); see [run_counted] for a self-contained
   wrapper. *)

(* Only interesting, non-trivial candidates are shared. *)
let is_candidate = function
  | App _ | Prim _ | Con (_, _, _ :: _) -> true
  | _ -> false

(* Candidates must not capture: every free variable of the candidate
   must be bound at the point where the earlier binding lives. Because
   we only record bindings on the current spine (the environment is
   threaded downward and never across), any hit is in scope. *)

module Seen = Map.Make (struct
  type t = expr

  let compare = Syntax.compare_expr
end)

type env = var Seen.t

let empty : env = Seen.empty

let remember (env : env) (x : var) (rhs : expr) =
  if is_candidate rhs && not (Seen.mem rhs env) then Seen.add rhs x env
  else env

let lookup (env : env) e = if is_candidate e then Seen.find_opt e env else None

(* A node none of whose children changed is returned itself. *)
let rec cse_expr (env : env) (e : expr) : expr =
  match lookup env e with
  | Some x ->
      Telemetry.tick Telemetry.Cse_shared;
      Decision.record ~pass:"cse" Decision.Cse ~site:(Ident.site x.v_name)
        Decision.Fired;
      Var x
  | None -> (
      match e with
      | Let (((NonRec (x, rhs) | Strict (x, rhs)) as b), body) ->
          let rhs' = cse_expr env rhs in
          let body' = cse_expr (remember env x rhs') body in
          if rhs' == rhs && body' == body then e
          else
            let b' =
              match b with Strict _ -> Strict (x, rhs') | _ -> NonRec (x, rhs')
            in
            Let (b', body')
      | Case (scrut, alts) ->
          let scrut' = cse_expr env scrut in
          let alts' = map_alts (cse_expr env) alts in
          if scrut' == scrut && alts' == alts then e else Case (scrut', alts')
      | _ -> map_subterms (cse_expr env) e)

(** Run CSE over a whole program. *)
let run (e : expr) : expr = Fault.point "cse/result" (cse_expr empty e)

(** [run] plus this invocation's count of shared occurrences. Forwards
    the ticks to any enclosing collector so pipeline totals still see
    them. *)
let run_counted (e : expr) : expr * int =
  let c = Telemetry.create () in
  let e' = Telemetry.with_counters c (fun () -> run e) in
  let n = Telemetry.get c Telemetry.Cse_shared in
  if n > 0 then Telemetry.tick ~n Telemetry.Cse_shared;
  (e', n)
