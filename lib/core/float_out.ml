(** The Float Out pass: move let bindings outwards (a light version of
    GHC's full laziness [20]).

    A binding whose right-hand side does not mention the enclosing
    lambda's binder can be allocated once, outside the lambda, instead
    of once per call.

    Per the paper's GHC modifications (Sec. 7): {b moving a join
    binding outwards risks destroying the join point} (it can separate
    the binding from the evaluation context its jumps must return to,
    or capture it in a closure), so Float Out {e leaves join bindings
    alone}. The test suite checks this. *)

open Syntax

let moved floats =
  Telemetry.tick ~n:(List.length floats) Telemetry.Float_out_moved;
  List.iter
    (fun ((x : var), _) ->
      Decision.record ~pass:"float-out" Decision.Float_out
        ~site:(Ident.site x.v_name) Decision.Fired)
    floats

(* If the (possibly partially stripped) lambda body still starts with a
   let, that binding is the one the blocked-variable check refused to
   hoist — ledger it. *)
let record_blocked body' =
  if Decision.enabled () then
    match body' with
    | Let (NonRec (y, _), _) ->
        Decision.record ~pass:"float-out" Decision.Float_out
          ~site:(Ident.site y.v_name)
          (Decision.Rejected Decision.Mentions_lambda_binder)
    | _ -> ()

(* Collect consecutive non-recursive lets at the top of [e] whose
   right-hand sides do not mention any variable in [blocked]; return
   them (outermost first) and the stripped body. Join bindings stop the
   collection: they are never floated. *)
let rec split_floatable blocked (e : expr) =
  match e with
  | Let (NonRec (x, rhs), body)
    when Ident.Set.is_empty (Ident.Set.inter blocked (free_vars rhs)) ->
      let floats, body' = split_floatable blocked body in
      ((x, rhs) :: floats, body')
  | _ -> ([], e)

let wrap_floats floats e =
  List.fold_right (fun (x, rhs) acc -> Let (NonRec (x, rhs), acc)) floats e

(** One bottom-up Float Out pass. A node none of whose children changed
    is returned itself. *)
let rec float_out (e : expr) : expr =
  match e with
  | Lam (x, b) -> (
      let b' = float_out b in
      let blocked = Ident.Set.singleton x.v_name in
      match split_floatable blocked b' with
      | [], body' ->
          record_blocked body';
          if b' == b then e else Lam (x, b')
      | floats, body' ->
          moved floats;
          record_blocked body';
          wrap_floats floats (Lam (x, body')))
  | TyLam (a, b) -> (
      let b' = float_out b in
      (* For a type lambda the blocking variable is a type variable;
         check the rhs's free type variables. *)
      let rec split e =
        match e with
        | Let (NonRec (x, rhs), body)
          when not (Ident.Set.mem a (free_ty_vars rhs))
               && not (Ident.Set.mem a (Types.free_vars x.v_ty)) ->
            let fs, body' = split body in
            ((x, rhs) :: fs, body')
        | _ -> ([], e)
      in
      match split b' with
      | [], body' ->
          record_blocked body';
          if b' == b then e else TyLam (a, b')
      | floats, body' ->
          moved floats;
          record_blocked body';
          wrap_floats floats (TyLam (a, body')))
  | _ -> map_subterms float_out e

(** Entry point: the floated term. *)
let run (e : expr) : expr = Fault.point "float-out/result" (float_out e)
