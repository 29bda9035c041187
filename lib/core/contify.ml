(** Contification: inferring join points (Sec. 4, Fig. 5).

    A [let]-bound function every one of whose occurrences is a
    saturated {e tail call} (with a consistent argument shape) can be
    rebound as a join point, and its calls turned into jumps, without
    changing the meaning of the program: when such a call runs, the
    evaluation context to discard is empty.

    Implementation: build {!Occur}'s usage of each scope bottom-up,
    alongside the contified scope itself; if every
    occurrence is a tail call of shape [(n_ty, n_val)], the right-hand
    side decomposes as [/\a_1..a_nty. \x_1..x_nval. body], and [body]
    has the same type as the binding's scope (the proviso of Fig. 5),
    then rewrite. Recursive groups are contified only as a whole, with
    the same check applied to each right-hand side (whose own lambdas
    are first stripped, so the recursive calls are tail calls of the
    stripped bodies).

    One restriction beyond the paper: a nullary candidate
    ([n_ty = n_val = 0]) that is used more than once is left alone —
    under call-by-need the [let] shares one evaluation, whereas a join
    point would re-evaluate at every jump. (GHC's Core is free to do
    this too but its simplifier makes the same work-duplication
    choice.) *)

open Syntax

(* Contification counts are reported per-invocation through
   {!Telemetry} ([Contified] / [Contified_group] ticks into whatever
   collector the caller installed) — the old process-global mutable
   [stats] record made repeated or interleaved pipeline runs
   cross-contaminate each other's counts. *)

(* Strip exactly [n_ty] type binders then [n_val] value binders from an
   expression; [None] if the binder prefix does not match. *)
let strip_binders ~n_ty ~n_val e =
  let rec tys n acc e =
    if n = 0 then vals n_val acc [] e
    else
      match e with
      | TyLam (a, b) -> tys (n - 1) acc b |> add_ty a
      | _ -> None
  and add_ty a = Option.map (fun (tvs, xs, body) -> (a :: tvs, xs, body))
  and vals n _acc xs e =
    if n = 0 then Some ([], List.rev xs, e)
    else
      match e with
      | Lam (x, b) -> vals (n - 1) _acc (x :: xs) b
      | _ -> None
  in
  tys n_ty () e

(* Rewrite every saturated tail-call spine of one of the [targets] into
   a jump. The occurrence analysis has already certified that every
   occurrence of a target is such a spine in tail position, so we can
   rewrite spines wherever they appear. [targets] maps the old
   identifier to the new join binder and its shape. *)
let rewrite_calls (targets : (var * Occur.call_shape) Ident.Map.t) e =
  let rec go e =
    match e with
    | Var _ | App _ | TyApp _ -> spine e
    | Lit _ -> e
    | Con (dc, phis, es) -> Con (dc, phis, List.map go es)
    | Prim (op, es) -> Prim (op, List.map go es)
    | Lam (x, b) -> Lam (x, go b)
    | TyLam (a, b) -> TyLam (a, go b)
    | Let (NonRec (x, rhs), body) -> Let (NonRec (x, go rhs), go body)
    | Let (Strict (x, rhs), body) -> Let (Strict (x, go rhs), go body)
    | Let (Rec pairs, body) ->
        Let (Rec (List.map (fun (x, rhs) -> (x, go rhs)) pairs), go body)
    | Case (scrut, alts) ->
        Case
          ( go scrut,
            List.map (fun a -> { a with alt_rhs = go a.alt_rhs }) alts )
    | Join (JNonRec d, body) ->
        Join (JNonRec { d with j_rhs = go d.j_rhs }, go body)
    | Join (JRec ds, body) ->
        Join (JRec (List.map (fun d -> { d with j_rhs = go d.j_rhs }) ds), go body)
    | Jump (j, phis, es, ty) -> Jump (j, phis, List.map go es, ty)
  and spine e =
    let head, args = collect_args e in
    match head with
    | Var v when Ident.Map.mem v.v_name targets ->
        let jvar, (shape : Occur.call_shape) =
          Ident.Map.find v.v_name targets
        in
        let tys =
          List.filter_map (function `Ty t -> Some t | `Val _ -> None) args
        in
        let vals =
          List.filter_map
            (function `Val a -> Some (go a) | `Ty _ -> None)
            args
        in
        assert (List.length tys = shape.n_ty);
        assert (List.length vals = shape.n_val);
        (* The jump's declared result type is the type the call had. *)
        let res_ty =
          let inst = Types.instantiate v.v_ty tys in
          let rec drop n ty =
            if n = 0 then ty
            else
              match ty with
              | Types.Arrow (_, t) -> drop (n - 1) t
              | _ -> invalid_arg "Contify: call shape does not match type"
          in
          drop shape.n_val inst
        in
        Jump (jvar, tys, vals, res_ty)
    | Var _ -> e
    | _ -> (
        match e with
        | App (f, a) -> App (spine f, go a)
        | TyApp (f, t) -> TyApp (spine f, t)
        | _ -> go e)
  in
  go e

(* Can this binding group be contified, given the usage of its binders
   in their scope (and, for recursive groups, in the right-hand
   sides)? Returns the prepared join definitions. *)
let candidate_defn (x : var) rhs (shape : Occur.call_shape) =
  match strip_binders ~n_ty:shape.n_ty ~n_val:shape.n_val rhs with
  | None -> None
  | Some (tvs, xs, body) ->
      let jvar =
        { v_name = x.v_name; v_ty = Types.join_point_ty tvs (List.map (fun p -> p.v_ty) xs) }
      in
      Some (jvar, { j_var = jvar; j_tyvars = tvs; j_params = xs; j_rhs = body })

let shape_of_usage (i : Occur.info) =
  if i.count > 0 && i.all_tail then
    match i.shape with
    | Some s when s.n_ty + s.n_val >= 1 || i.count = 1 -> Some s
    | _ -> None
  else None

(* This pass's name in the decision ledger. *)
let dpass = "contify"

(* Why {!shape_of_usage} said no, as a ledger reason. [None] for dead
   binders (count 0): dropping dead code is the simplifier's decision,
   not a contification refusal. *)
let usage_rejection (i : Occur.info) : Decision.reason option =
  if i.count = 0 then None
  else if not i.all_tail then
    Some
      (if i.under_lam then Decision.Escapes_under_lambda
       else Decision.Not_all_tail_calls)
  else
    match i.shape with
    | None -> Some Decision.Shape_mismatch
    | Some s when s.n_ty + s.n_val >= 1 || i.count = 1 -> None
    | Some _ -> Some Decision.Nullary_candidate

let record_verdict (x : var) verdict =
  Decision.record ~pass:dpass Decision.Contify ~site:(Ident.site x.v_name)
    verdict

(* The Fig. 5 proviso: the contified body must have the type of the
   scope. [ty_of] may raise on open terms built by tests; treat any
   failure as "not contifiable". *)
let body_ty_matches body scope_ty =
  match Syntax.ty_of body with
  | ty -> Types.equal ty scope_ty
  | exception _ -> false

(* Contify [e], returning the new tree and its usage: {!Occur.of_expr}
   of the new tree, built bottom-up from the children's usages with
   {!Occur}'s per-node rules. A binding reads its binder's usage off its
   contified scope; only a freshly contified join's stripped right-hand
   side is analysed afresh. The decision ledger's order depends on the
   order children are visited in: body before right-hand side for
   [join] and strict [let], alternatives before scrutinee for [case],
   and right to left along an application spine. *)
let rec go (e : expr) : expr * Occur.t =
  match e with
  | Var _ | App _ | TyApp _ -> spine e
  | Lit _ -> (e, Ident.Map.empty)
  | Con (dc, phis, es) ->
      let es, ms = go_list es in
      (Con (dc, phis, es), Occur.of_args ms)
  | Prim (op, es) ->
      let es, ms = go_list es in
      (Prim (op, es), Occur.of_args ms)
  | Lam (x, b) ->
      let b, m = go b in
      (Lam (x, b), Occur.of_lam [ x ] m)
  | TyLam (a, b) ->
      let b, m = go b in
      (TyLam (a, b), Occur.of_lam [] m)
  | Case (scrut, alts) ->
      let alts =
        List.map
          (fun a ->
            let rhs, m = go a.alt_rhs in
            ({ a with alt_rhs = rhs }, Occur.of_alt a.alt_pat m))
          alts
      in
      let scrut, s = go scrut in
      ( Case (scrut, List.map fst alts),
        Occur.of_case ~scrut:s ~alts:(List.map snd alts) )
  | Join (jb, body) ->
      let body, mb = go body in
      let ds =
        List.map
          (fun d ->
            let rhs, m = go d.j_rhs in
            ({ d with j_rhs = rhs }, m))
          (join_defns jb)
      in
      let jb =
        match jb with
        | JNonRec _ -> JNonRec (fst (List.hd ds))
        | JRec _ -> JRec (List.map fst ds)
      in
      ( Join (jb, body),
        Occur.of_join jb
          ~rhss:(List.map (fun (d, m) -> Occur.of_join_rhs jb d m) ds)
          ~body:mb )
  | Jump (j, phis, es, ty) ->
      let es, ms = go_list es in
      (Jump (j, phis, es, ty), Occur.of_jump j phis ms)
  | Let (Strict (x, rhs), body) ->
      let body, mb = go body in
      let rhs, mr = go rhs in
      ( Let (Strict (x, rhs), body),
        Occur.of_let ~rhs:mr ~body:(Occur.close [ x ] mb) )
  | Let (NonRec (x, rhs), body) -> (
      let rhs, mr = go rhs in
      let body, mb = go body in
      let info = Occur.lookup mb x in
      let keep () =
        ( Let (NonRec (x, rhs), body),
          Occur.of_let ~rhs:mr ~body:(Occur.close [ x ] mb) )
      in
      let reject reason =
        record_verdict x (Decision.Rejected reason);
        keep ()
      in
      match shape_of_usage info with
      | None -> (
          match usage_rejection info with
          | None -> keep () (* dead binder; the simplifier will drop it *)
          | Some r -> reject r)
      | Some shape -> (
          match candidate_defn x rhs shape with
          | None -> reject Decision.Rhs_arity_mismatch
          | Some (jvar, defn) ->
              let scope_ty =
                match Syntax.ty_of body with
                | ty -> Some ty
                | exception _ -> None
              in
              if
                match scope_ty with
                | Some ty -> body_ty_matches defn.j_rhs ty
                | None -> false
              then begin
                Telemetry.tick Telemetry.Contified;
                record_verdict x Decision.Fired;
                let targets = Ident.Map.singleton x.v_name (jvar, shape) in
                let jb = JNonRec defn in
                (* A call turned jump keeps its usage, so [mb] still
                   describes the rewritten body. *)
                let rhs_usage = Occur.of_expr defn.j_rhs in
                ( Join (jb, rewrite_calls targets body),
                  Occur.of_join jb
                    ~rhss:[ Occur.of_join_rhs jb defn rhs_usage ]
                    ~body:mb )
              end
              else reject Decision.Scope_type_mismatch))
  | Let (Rec pairs, body) -> (
      let pairs, rhs_uses =
        List.split
          (List.map
             (fun (x, rhs) ->
               let rhs, m = go rhs in
               ((x, rhs), m))
             pairs)
      in
      let body, body_usage = go body in
      let fallback () =
        ( Let (Rec pairs, body),
          Occur.of_letrec (List.map fst pairs) ~rhss:rhs_uses
            ~body:body_usage )
      in
      let scope_ty =
        match Syntax.ty_of body with ty -> Some ty | exception _ -> None
      in
      match scope_ty with
      | None ->
          (* The proviso cannot even be checked (open scope). *)
          List.iter
            (fun (x, _) ->
              record_verdict x (Decision.Rejected Decision.Scope_type_mismatch))
            pairs;
          fallback ()
      | Some scope_ty -> (
          (* Each binder needs a consistent shape across body and all
             rhss; each rhs must strip to that shape; recursive calls
             must be tail calls of the stripped bodies. *)
          let shapes =
            List.map (fun (x, _) -> (x, Occur.lookup body_usage x)) pairs
          in
          (* First guess shapes from the body usage; occurrences may
             also be only in rhss, so merge rhs usages (computed on
             stripped bodies below). To keep this simple we require a
             usable shape to be visible from the merged usage of body
             and raw rhss-in-tail-position-after-stripping. We iterate:
             strip with the body shape. *)
          let try_with_shapes (chosen : (var * Occur.call_shape) list) =
            let defns =
              List.map
                (fun ((x : var), shape) ->
                  match
                    List.find_opt (fun ((y : var), _) -> var_equal x y) pairs
                  with
                  | None -> None
                  | Some (_, rhs) ->
                      Option.map
                        (fun (jv, d) -> (x, shape, jv, d))
                        (candidate_defn x rhs shape))
                chosen
            in
            if List.exists Option.is_none defns then begin
              (* Groups contify only as a whole: the binders whose rhs
                 did not strip are the culprits. *)
              List.iter2
                (fun (x, _) defn ->
                  if Option.is_none defn then
                    record_verdict x
                      (Decision.Rejected Decision.Rhs_arity_mismatch))
                chosen defns;
              None
            end
            else
              let defns = List.filter_map Fun.id defns in
              (* Check typing proviso and tail-ness of recursive calls
                 inside each stripped rhs. *)
              let bad_types =
                List.filter
                  (fun (_, _, _, d) -> not (body_ty_matches d.j_rhs scope_ty))
                  defns
              in
              if bad_types <> [] then begin
                List.iter
                  (fun (x, _, _, _) ->
                    record_verdict x
                      (Decision.Rejected Decision.Scope_type_mismatch))
                  bad_types;
                None
              end
              else
                let rhs_usages =
                  List.map (fun (_, _, _, d) -> Occur.of_expr d.j_rhs) defns
                in
                let total_usage =
                  List.fold_left Occur.union body_usage rhs_usages
                in
                let bad_shapes =
                  List.filter
                    (fun ((x : var), shape, _, _) ->
                      match shape_of_usage (Occur.lookup total_usage x) with
                      | Some s -> s <> shape
                      | None -> true)
                    defns
                in
                if bad_shapes <> [] then begin
                  List.iter
                    (fun ((x : var), _, _, _) ->
                      let i = Occur.lookup total_usage x in
                      record_verdict x
                        (Decision.Rejected
                           (Option.value ~default:Decision.Shape_mismatch
                              (usage_rejection i))))
                    bad_shapes;
                  None
                end
                else
                  let targets =
                    List.fold_left
                      (fun m ((x : var), shape, jv, _) ->
                        Ident.Map.add x.v_name (jv, shape) m)
                      Ident.Map.empty defns
                  in
                  let ds =
                    List.map
                      (fun (_, _, _, d) ->
                        { d with j_rhs = rewrite_calls targets d.j_rhs })
                      defns
                  in
                  (* As for a single binding, rewriting calls into jumps
                     leaves every usage as it was. *)
                  let jb = JRec ds in
                  Some
                    ( Join (jb, rewrite_calls targets body),
                      Occur.of_join jb
                        ~rhss:(List.map2 (Occur.of_join_rhs jb) ds rhs_usages)
                        ~body:body_usage )
          in
          let chosen =
            List.filter_map
              (fun ((x : var), (i : Occur.info)) ->
                match shape_of_usage i with
                | Some s -> Some (x, s)
                | None -> (
                    (* The binder may be used only in the rhss; guess
                       its shape from its manifest arity. *)
                    if i.count > 0 then None
                    else
                      match
                        List.find_opt (fun ((y : var), _) -> var_equal x y) pairs
                      with
                      | None -> None
                      | Some (_, rhs) ->
                          let binders, _ = collect_binders rhs in
                          let n_ty =
                            List.length
                              (List.filter
                                 (function `Ty _ -> true | _ -> false)
                                 binders)
                          in
                          let n_val =
                            List.length
                              (List.filter
                                 (function `Val _ -> true | _ -> false)
                                 binders)
                          in
                          Some (x, { Occur.n_ty; n_val })))
              shapes
          in
          if List.length chosen <> List.length pairs then begin
            (* The binders with no usable shape sink the whole group. *)
            List.iter
              (fun ((x : var), i) ->
                if
                  not (List.exists (fun ((y : var), _) -> var_equal x y) chosen)
                then
                  match usage_rejection i with
                  | Some r -> record_verdict x (Decision.Rejected r)
                  | None ->
                      record_verdict x
                        (Decision.Rejected Decision.Shape_mismatch))
              shapes;
            fallback ()
          end
          else
            match try_with_shapes chosen with
            | Some result ->
                Telemetry.tick Telemetry.Contified_group;
                Telemetry.tick ~n:(List.length pairs) Telemetry.Contified;
                List.iter (fun (x, _) -> record_verdict x Decision.Fired) pairs;
                result
            | None -> fallback ()))

(* An application spine. Value arguments are contified right to left,
   then the head. *)
and spine e =
  let head, args = collect_args e in
  let rec go_args = function
    | [] -> ([], [])
    | arg :: rest -> (
        let rest, ms = go_args rest in
        match arg with
        | `Ty _ -> (arg :: rest, ms)
        | `Val a ->
            let a, m = go a in
            (`Val a :: rest, m :: ms))
  in
  let args, ms = go_args args in
  let rebuild head =
    List.fold_left
      (fun f -> function `Ty t -> TyApp (f, t) | `Val a -> App (f, a))
      head args
  in
  match head with
  | Var v -> (rebuild head, Occur.of_call ~tail:true v args ms)
  | _ ->
      let head, m = go head in
      (rebuild head, Occur.of_apply ~head:m ms)

and go_list es = List.split (List.map go es)

(** One bottom-up pass turning every eligible [let] into a [join],
    returning the new tree and its usage ({!Occur.of_expr} of it).
    Idempotent; cheap enough to run "whenever the occurrence analyzer
    runs" (Sec. 7). The usage describes the tree before the
    ["contify/result"] fault point (identity unless armed, for the
    {!Guard} recovery tests). *)
let contify (e : expr) : expr * Occur.t =
  let e, usage = go e in
  (Fault.point "contify/result" e, usage)

(** [contify] under a private collector; returns the term and this
    invocation's contified-binding count. The ticks are re-emitted into
    the enclosing collector (if any) so a surrounding pipeline run
    still observes them. *)
let contify_counted (e : expr) : expr * int =
  let c = Telemetry.create () in
  let e', _ = Telemetry.with_counters c (fun () -> contify e) in
  let n = Telemetry.get c Telemetry.Contified in
  let groups = Telemetry.get c Telemetry.Contified_group in
  if n > 0 then Telemetry.tick ~n Telemetry.Contified;
  if groups > 0 then Telemetry.tick ~n:groups Telemetry.Contified_group;
  (e', n)
