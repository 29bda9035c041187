(** Post-simplification cleanup: the [drop], [jdrop], and (once-used)
    [jinline] axioms applied bottom-up.

    The simplifier proper cannot inline a once-used join point in the
    same pass that absorbs the binding's evaluation context, because at
    the jump site it cannot tell which suffix of the current
    continuation belongs to the binding. After a full simplifier pass,
    however, every jump is a tail call of its binding (the pass
    normalises to commuting-normal form, Sec. 6), so inlining a
    once-used join point is a plain [jinline] + [jdrop]. Interleaving
    this cleanup between simplifier passes yields the cascade. *)

open Syntax

(* Cheap, certainly-terminating expressions (cf. GHC's
   ok-for-speculation): safe to discard or evaluate early. *)
let rec ok_for_speculation = function
  | Var _ | Lit _ -> true
  | Con (_, _, es) -> List.for_all ok_for_speculation es
  | Prim ((Primop.Div | Primop.Mod), _) -> false
  | Prim (_, es) -> List.for_all ok_for_speculation es
  | TyApp (e, _) -> ok_for_speculation e
  | Lam _ | TyLam _ -> true
  | _ -> false

(** One bottom-up cleanup pass; returns the new term and whether
    anything changed. *)
let cleanup (e : expr) : expr * bool =
  let changed = ref false in
  let rec go (e : expr) : expr =
    match e with
    | Var _ | Lit _ -> e
    | Con (dc, phis, es) -> Con (dc, phis, List.map go es)
    | Prim (op, es) -> Prim (op, List.map go es)
    | App (f, a) -> App (go f, go a)
    | TyApp (f, t) -> TyApp (go f, t)
    | Lam (x, b) -> Lam (x, go b)
    | TyLam (a, b) -> TyLam (a, go b)
    | Let (NonRec (x, rhs), body) ->
        let body = go body in
        if occurs x.v_name body then Let (NonRec (x, go rhs), body)
        else begin
          changed := true;
          Telemetry.tick Telemetry.Drop;
          body
        end
    | Let (Strict (x, rhs), body) ->
        let body = go body in
        let rhs = go rhs in
        (* A dead strict binding may only be dropped when its right-hand
           side is certainly terminating. *)
        if occurs x.v_name body then Let (Strict (x, rhs), body)
        else if ok_for_speculation rhs then begin
          changed := true;
          Telemetry.tick Telemetry.Drop;
          body
        end
        else Let (Strict (x, rhs), body)
    | Let (Rec pairs, body) ->
        let body = go body in
        let pairs = List.map (fun (x, rhs) -> (x, go rhs)) pairs in
        let dead =
          List.for_all
            (fun ((x : var), _) ->
              (not (occurs x.v_name body))
              && List.for_all (fun (_, rhs) -> not (occurs x.v_name rhs)) pairs)
            pairs
        in
        if dead then begin
          changed := true;
          Telemetry.tick Telemetry.Drop;
          body
        end
        else Let (Rec pairs, body)
    | Case (scrut, alts) ->
        Case (go scrut, List.map (fun a -> { a with alt_rhs = go a.alt_rhs }) alts)
    | Jump (j, phis, es, ty) -> Jump (j, phis, List.map go es, ty)
    | Join (JNonRec d, body) ->
        let body = go body in
        let d = { d with j_rhs = go d.j_rhs } in
        let uses = occurrences ~upto:2 d.j_var.v_name body in
        if uses = 0 then begin
          (* jdrop *)
          changed := true;
          Telemetry.tick Telemetry.Jdrop;
          body
        end
        else if uses = 1 then begin
          match Axioms.substitute_jumps ~defn:d body with
          | Some body' ->
              (* jinline + jdrop *)
              changed := true;
              Telemetry.tick Telemetry.Jinline;
              Telemetry.tick Telemetry.Jdrop;
              go body'
          | None -> Join (JNonRec d, body)
        end
        else Join (JNonRec d, body)
    | Join (JRec ds, body) ->
        let body = go body in
        let ds = List.map (fun d -> { d with j_rhs = go d.j_rhs }) ds in
        let dead =
          List.for_all
            (fun (d : join_defn) ->
              (not (occurs d.j_var.v_name body))
              && List.for_all
                   (fun (d' : join_defn) -> not (occurs d.j_var.v_name d'.j_rhs))
                   ds)
            ds
        in
        if dead then begin
          changed := true;
          Telemetry.tick Telemetry.Jdrop;
          body
        end
        else Join (JRec ds, body)
  in
  let e' = go e in
  (e', !changed)
