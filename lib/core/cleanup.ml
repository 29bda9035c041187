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
    anything changed. A node none of whose children changed is
    returned itself, so a pass that finds nothing to do copies
    nothing. *)
let cleanup (e : expr) : expr * bool =
  let changed = ref false in
  let rec go (e : expr) : expr =
    match e with
    | Var _ | Lit _ -> e
    | Con (dc, phis, es) ->
        let es' = map_shared go es in
        if es' == es then e else Con (dc, phis, es')
    | Prim (op, es) ->
        let es' = map_shared go es in
        if es' == es then e else Prim (op, es')
    | App (f, a) ->
        (* The argument before the function (and, below, the
           alternatives before the scrutinee): a jinline draws uniques,
           so the visiting order is part of every artifact's bytes. *)
        let a' = go a in
        let f' = go f in
        if f' == f && a' == a then e else App (f', a')
    | TyApp (f, t) ->
        let f' = go f in
        if f' == f then e else TyApp (f', t)
    | Lam (x, b) ->
        let b' = go b in
        if b' == b then e else Lam (x, b')
    | TyLam (a, b) ->
        let b' = go b in
        if b' == b then e else TyLam (a, b')
    | Let (NonRec (x, rhs), body) ->
        let body' = go body in
        if occurs x.v_name body' then
          let rhs' = go rhs in
          if rhs' == rhs && body' == body then e
          else Let (NonRec (x, rhs'), body')
        else begin
          changed := true;
          Telemetry.tick Telemetry.Drop;
          body'
        end
    | Let (Strict (x, rhs), body) ->
        let body' = go body in
        let rhs' = go rhs in
        (* A dead strict binding may only be dropped when its right-hand
           side is certainly terminating. *)
        if (not (occurs x.v_name body')) && ok_for_speculation rhs' then begin
          changed := true;
          Telemetry.tick Telemetry.Drop;
          body'
        end
        else if rhs' == rhs && body' == body then e
        else Let (Strict (x, rhs'), body')
    | Let (Rec pairs, body) ->
        let body' = go body in
        let pairs' = map_shared go_pair pairs in
        let dead =
          List.for_all
            (fun ((x : var), _) ->
              (not (occurs x.v_name body'))
              && List.for_all (fun (_, rhs) -> not (occurs x.v_name rhs)) pairs')
            pairs'
        in
        if dead then begin
          changed := true;
          Telemetry.tick Telemetry.Drop;
          body'
        end
        else if pairs' == pairs && body' == body then e
        else Let (Rec pairs', body')
    | Case (scrut, alts) ->
        let alts' = map_alts go alts in
        let scrut' = go scrut in
        if scrut' == scrut && alts' == alts then e else Case (scrut', alts')
    | Jump (j, phis, es, ty) ->
        let es' = map_shared go es in
        if es' == es then e else Jump (j, phis, es', ty)
    | Join (JNonRec d, body) ->
        let body' = go body in
        let d' = go_defn d in
        let uses = occurrences ~upto:2 d'.j_var.v_name body' in
        let inlined =
          if uses = 1 then Axioms.substitute_jumps ~defn:d' body' else None
        in
        if uses = 0 then begin
          (* jdrop *)
          changed := true;
          Telemetry.tick Telemetry.Jdrop;
          body'
        end
        else begin
          match inlined with
          | Some body'' ->
              (* jinline + jdrop *)
              changed := true;
              Telemetry.tick Telemetry.Jinline;
              Telemetry.tick Telemetry.Jdrop;
              go body''
          | None ->
              if d' == d && body' == body then e
              else Join (JNonRec d', body')
        end
    | Join (JRec ds, body) ->
        let body' = go body in
        let ds' = map_shared go_defn ds in
        let dead =
          List.for_all
            (fun (d : join_defn) ->
              (not (occurs d.j_var.v_name body'))
              && List.for_all
                   (fun (d' : join_defn) -> not (occurs d.j_var.v_name d'.j_rhs))
                   ds')
            ds'
        in
        if dead then begin
          changed := true;
          Telemetry.tick Telemetry.Jdrop;
          body'
        end
        else if ds' == ds && body' == body then e
        else Join (JRec ds', body')
  and go_pair ((x, rhs) as p) =
    let rhs' = go rhs in
    if rhs' == rhs then p else (x, rhs')
  and go_defn d =
    let rhs' = go d.j_rhs in
    if rhs' == d.j_rhs then d else { d with j_rhs = rhs' }
  in
  let e' = go e in
  (e', !changed)
