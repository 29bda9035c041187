(** Call-pattern specialisation (SpecConstr) for recursive join points.

    Sec. 9 of the paper notes that stream fusion "depends on several
    algorithms working in concert, including commuting conversions,
    inlining, user-specified rewrite rules, and {e call-pattern
    specialisation} [21]". This pass supplies the last ingredient, in
    the restricted (and most profitable) form the fused loops need:

    If {e every} jump to a recursive join point passes, in some
    argument position, an application of the {e same} data constructor,
    the join point is respecialised to take the constructor's {e
    fields} instead, and the jumps pass the fields directly. The old
    parameter is rebuilt inside the right-hand side by a let binding

    {v join rec go (acc : Int) (st : Pair a b) = ... case st of ...
       ==>
       join rec go (acc : Int) (f1 : a) (f2 : b) =
         let st = MkPair f1 f2 in ... case st of ... v}

    which is trivially meaning-preserving; the Simplifier's
    case-of-known-constructor then cancels the rebuilt constructor
    against the scrutinee, and with it the per-iteration allocation of
    the loop state (e.g. the [Pair] threaded through a fused [zip]).

    Jump arguments that are variables let-bound to a constructor in
    scope are looked through, so the pass composes with the
    simplifier's ANF-isation of constructor bindings. *)

open Syntax

(* Specialised-group counts are reported per-invocation via Telemetry
   ([Spec_constr] ticks). *)

(* Constructor bindings in scope: variable unique -> constructor rhs.
   Used to look through [let x = K ... in ... jump j x ...]. *)
type cenv = expr Ident.Map.t

let con_view (cenv : cenv) (e : expr) : (Datacon.t * Types.t list * expr list) option =
  match e with
  | Con (dc, phis, args) -> Some (dc, phis, args)
  | Var v -> (
      match Ident.Map.find_opt v.v_name cenv with
      | Some (Con (dc, phis, args))
        when List.for_all Cleanup.ok_for_speculation args ->
          (* Only look through bindings whose fields are cheap and
             certainly terminating: moving them to the jump site may
             duplicate them if the binding has other uses. *)
          Some (dc, phis, args)
      | _ -> None)
  | _ -> None

(* Collect the argument lists of every jump to [labels] in [e]. Returns
   None-poisoned info if a label is used with an unexpected shape. *)
let collect_jumps (labels : Ident.Set.t) (cenv : cenv) (e : expr) :
    (Ident.t * (Datacon.t * Types.t list * expr list) option list) list =
  let acc = ref [] in
  let rec go cenv e =
    match e with
    | Var _ | Lit _ -> ()
    | Con (_, _, es) | Prim (_, es) -> List.iter (go cenv) es
    | App (f, a) ->
        go cenv f;
        go cenv a
    | TyApp (f, _) -> go cenv f
    | Lam (_, b) | TyLam (_, b) -> go cenv b
    | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
        go cenv rhs;
        let cenv' =
          match rhs with
          | Con _ -> Ident.Map.add x.v_name rhs cenv
          | _ -> cenv
        in
        go cenv' body
    | Let (Rec pairs, body) ->
        List.iter (fun (_, rhs) -> go cenv rhs) pairs;
        go cenv body
    | Case (scrut, alts) ->
        go cenv scrut;
        List.iter (fun a -> go cenv a.alt_rhs) alts
    | Join (jb, body) ->
        List.iter (fun d -> go cenv d.j_rhs) (join_defns jb);
        go cenv body
    | Jump (j, _, es, _) ->
        List.iter (go cenv) es;
        if Ident.Set.mem j.v_name labels then
          acc := (j.v_name, List.map (con_view cenv) es) :: !acc
  in
  go cenv e;
  !acc

(* Decide, for one definition, which positions can be specialised:
   every jump must present the same constructor there, and the
   parameter's type must be that constructor's datatype. *)
let spec_mask (d : join_defn)
    (jumps : (Datacon.t * Types.t list * expr list) option list list) :
    Datacon.t option list =
  List.mapi
    (fun i (p : var) ->
      let head_ok =
        match fst (Types.split_apps p.v_ty) with
        | Types.Con _ -> true
        | _ -> false
      in
      if not head_ok then None
      else
        let views = List.map (fun args -> List.nth args i) jumps in
        match views with
        | [] -> None
        | Some (dc, _, _) :: _
          when List.for_all
                 (function
                   | Some (dc', _, _) -> Datacon.equal dc dc'
                   | None -> false)
                 views ->
            Some dc
        | _ -> None)
    d.j_params

(* The rewriting environment for one specialised group. *)
type spec = {
  new_var : var;  (** The respecialised label (same unique family). *)
  masks : Datacon.t option list;
}

(* A node none of whose children changed is returned itself. *)
let rec spec_expr (cenv : cenv) (specs : spec Ident.Map.t) (e : expr) : expr =
  match e with
  | Let (((NonRec (x, rhs) | Strict (x, rhs)) as b), body) ->
      let rhs' = spec_expr cenv specs rhs in
      let cenv' =
        match rhs' with
        | Con _ -> Ident.Map.add x.v_name rhs' cenv
        | _ -> cenv
      in
      let body' = spec_expr cenv' specs body in
      if rhs' == rhs && body' == body then e
      else
        let b' =
          match b with Strict _ -> Strict (x, rhs') | _ -> NonRec (x, rhs')
        in
        Let (b', body')
  | Jump (j, phis, es0, ty) -> (
      let es = map_shared (spec_expr cenv specs) es0 in
      match Ident.Map.find_opt j.v_name specs with
      | None -> if es == es0 then e else Jump (j, phis, es, ty)
      | Some s ->
          let es' =
            List.concat
              (List.map2
                 (fun mask arg ->
                   match mask with
                   | None -> [ arg ]
                   | Some _ -> (
                       match con_view cenv arg with
                       | Some (_, _, fields) -> fields
                       | None ->
                           (* The analysis certified every jump; but a
                              rewrite above may have changed the shape.
                              Fall back to field projections via a
                              case — cannot happen in practice, so we
                              fail loudly. *)
                           invalid_arg
                             "SpecConstr: jump argument lost its constructor"))
                 s.masks es)
          in
          Jump (s.new_var, phis, es', ty))
  | Join ((JRec _ as jb), body) -> (
      (* First specialise inside, then consider this group. *)
      let jb' = map_jbind (spec_expr cenv specs) jb in
      let body' = spec_expr cenv specs body in
      match try_specialise cenv (join_defns jb') body' with
      | Some e' -> e'
      | None -> if jb' == jb && body' == body then e else Join (jb', body'))
  | Join (JNonRec d, body) ->
      let body' = spec_expr cenv specs body in
      let rhs' = spec_expr cenv specs d.j_rhs in
      if rhs' == d.j_rhs && body' == body then e
      else Join (JNonRec { d with j_rhs = rhs' }, body')
  | _ -> map_subterms (spec_expr cenv specs) e

and try_specialise (cenv : cenv) (ds : join_defn list) (body : expr) :
    expr option =
  let labels =
    Ident.Set.of_list (List.map (fun d -> d.j_var.v_name) ds)
  in
  let all_jumps =
    collect_jumps labels cenv body
    @ List.concat_map (fun d -> collect_jumps labels cenv d.j_rhs) ds
  in
  (* Group jumps per label, requiring consistent arity. *)
  let jumps_for (d : join_defn) =
    List.filter_map
      (fun (l, views) ->
        if Ident.equal l d.j_var.v_name then
          if List.length views = List.length d.j_params then Some views
          else None
        else None)
      all_jumps
  in
  let masks =
    List.map
      (fun d ->
        let js = jumps_for d in
        if js = [] then List.map (fun _ -> None) d.j_params
        else spec_mask d js)
      ds
  in
  let record d verdict =
    Decision.record ~pass:"spec-constr" Decision.Spec_constr
      ~site:(Ident.site d.j_var.v_name) verdict
  in
  (* A member with live jumps but no position where every jump agrees
     on a constructor cannot be specialised — ledger it (dead members,
     with no jumps at all, are not a decision). *)
  let record_unspecialisable () =
    if Decision.enabled () then
      List.iter2
        (fun d mask ->
          if List.for_all Option.is_none mask && jumps_for d <> [] then
            record d (Decision.Rejected Decision.No_common_constructor))
        ds masks
  in
  if List.for_all (List.for_all Option.is_none) masks then begin
    record_unspecialisable ();
    None
  end
  else begin
    Telemetry.tick Telemetry.Spec_constr;
    List.iter2
      (fun d mask ->
        if List.exists Option.is_some mask then record d Decision.Fired)
      ds masks;
    record_unspecialisable ();
    (* Build the new definitions and the rewriting specs. *)
    let items =
      List.map2
        (fun d mask ->
          let new_params_rev, rebuilds =
            List.fold_left2
              (fun (ps, rb) (p : var) m ->
                match m with
                | None -> (p :: ps, rb)
                | Some dc ->
                    let _, phis = Types.split_apps p.v_ty in
                    let field_tys = Datacon.instantiate_args dc phis in
                    let fields =
                      List.map (fun t -> mk_var (p.v_name.Ident.name ^ "f") t) field_tys
                    in
                    ( List.rev_append fields ps,
                      (fun body ->
                        Let
                          ( NonRec
                              ( p,
                                Con
                                  ( dc,
                                    phis,
                                    List.map (fun f -> Var f) fields ) ),
                            body ))
                      :: rb ))
              ([], []) d.j_params mask
          in
          let new_params = List.rev new_params_rev in
          let new_var = mk_join_var d.j_var.v_name.Ident.name d.j_tyvars new_params in
          let rebuild body = List.fold_left (fun b w -> w b) body rebuilds in
          (d, mask, new_params, new_var, rebuild))
        ds masks
    in
    let specs =
      List.fold_left
        (fun m (d, mask, _, new_var, _) ->
          Ident.Map.add d.j_var.v_name { new_var; masks = mask } m)
        Ident.Map.empty items
    in
    let ds' =
      List.map
        (fun ((d : join_defn), _, new_params, new_var, rebuild) ->
          {
            j_var = new_var;
            j_tyvars = d.j_tyvars;
            j_params = new_params;
            j_rhs = spec_expr cenv specs (rebuild d.j_rhs);
          })
        items
    in
    Some (Join (JRec ds', spec_expr cenv specs body))
  end

(** Run call-pattern specialisation over a whole program. One call
    specialises one constructor layer; the pipeline's rounds peel
    nested layers. *)
let run (e : expr) : expr =
  Fault.point "spec-constr/result" (spec_expr Ident.Map.empty Ident.Map.empty e)
