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

let rec cse_expr (env : env) (e : expr) : expr =
  match lookup env e with
  | Some x ->
      Telemetry.tick Telemetry.Cse_shared;
      Decision.record ~pass:"cse" Decision.Cse ~site:(Ident.site x.v_name)
        Decision.Fired;
      Var x
  | None -> (
      match e with
      | Var _ | Lit _ -> e
      | Con (dc, phis, es) -> Con (dc, phis, List.map (cse_expr env) es)
      | Prim (op, es) -> Prim (op, List.map (cse_expr env) es)
      | App (f, a) -> App (cse_expr env f, cse_expr env a)
      | TyApp (f, t) -> TyApp (cse_expr env f, t)
      | Lam (x, b) -> Lam (x, cse_expr env b)
      | TyLam (a, b) -> TyLam (a, cse_expr env b)
      | Let (NonRec (x, rhs), body) ->
          let rhs = cse_expr env rhs in
          Let (NonRec (x, rhs), cse_expr (remember env x rhs) body)
      | Let (Strict (x, rhs), body) ->
          let rhs = cse_expr env rhs in
          Let (Strict (x, rhs), cse_expr (remember env x rhs) body)
      | Let (Rec pairs, body) ->
          Let
            ( Rec (List.map (fun (x, rhs) -> (x, cse_expr env rhs)) pairs),
              cse_expr env body )
      | Case (scrut, alts) ->
          let scrut = cse_expr env scrut in
          Case
            ( scrut,
              List.map
                (fun a -> { a with alt_rhs = cse_expr env a.alt_rhs })
                alts )
      | Join (jb, body) ->
          let jb' =
            match jb with
            | JNonRec d -> JNonRec { d with j_rhs = cse_expr env d.j_rhs }
            | JRec ds ->
                JRec
                  (List.map (fun d -> { d with j_rhs = cse_expr env d.j_rhs }) ds)
          in
          Join (jb', cse_expr env body)
      | Jump (j, phis, es, ty) -> Jump (j, phis, List.map (cse_expr env) es, ty))

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
