(** Demand (strictness) analysis and strictification.

    Sec. 7 of the paper: "Strictness analysis is as useful for join
    points as it is for ordinary let bindings", with the
    worker/wrapper transform adjusted so the pieces remain join
    points. This module implements the part of that story that matters
    for allocation:

    - {!strict_vars} computes which free variables an expression
      {e certainly forces} before producing a WHNF (a 2-point demand
      domain). Jumps to join points (and saturated calls to known
      functions) propagate the demand of the callee's strict
      parameters into the corresponding arguments; for {e recursive}
      groups the parameter masks are computed as a (descending)
      fixpoint, exactly as in GHC's demand analyser.
    - {!strictify} uses the masks to
      {ul {- turn demanded lazy [let]s into {!Syntax.Strict} bindings;}
          {- wrap the strict arguments of jumps and saturated calls in
             strict bindings, forcing them before the transfer.}}

    The payoff is GHC's: a tail-recursive loop whose accumulator is
    strictly used no longer allocates a thunk per iteration — the
    argument is evaluated before the jump, and an unboxed result binds
    for free. Forcing early is sound exactly because the analysis
    proved the value would be forced anyway (or the program diverges
    either way). *)

open Syntax

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

(** Strictness environment: binder unique -> (value arity, parameter
    strictness mask). Entries exist for join points and for let-bound
    functions whose definition is in scope. *)
type fenv = (int * bool list) Ident.Map.t

(** Free variables certainly forced before [e] yields a WHNF, given
    strictness masks for in-scope join points and functions. *)
let rec strict_vars (fenv : fenv) (e : expr) : Ident.Set.t =
  match e with
  | Var v -> Ident.Set.singleton v.v_name
  | Lit _ | Lam _ | TyLam _ | Con _ ->
      (* Already WHNF; constructor fields are lazy. *)
      Ident.Set.empty
  | Prim (_, es) ->
      (* Primops are strict in every argument. *)
      List.fold_left
        (fun acc e -> Ident.Set.union acc (strict_vars fenv e))
        Ident.Set.empty es
  | App _ | TyApp _ -> spine_strict fenv e
  | Case (scrut, alts) ->
      let branches =
        List.map
          (fun { alt_pat; alt_rhs } ->
            List.fold_left
              (fun s (x : var) -> Ident.Set.remove x.v_name s)
              (strict_vars fenv alt_rhs) (pat_binders alt_pat))
          alts
      in
      let meet =
        match branches with
        | [] -> Ident.Set.empty
        | b :: bs -> List.fold_left Ident.Set.inter b bs
      in
      Ident.Set.union (strict_vars fenv scrut) meet
  | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
      let sb = strict_vars fenv body in
      let s = Ident.Set.remove x.v_name sb in
      if Ident.Set.mem x.v_name sb then
        Ident.Set.union s (strict_vars fenv rhs)
      else s
  | Let (Rec pairs, body) ->
      (* Compute the group's parameter masks (fixpoint) so calls to the
         local functions propagate demand into their arguments. *)
      let defs =
        List.filter_map
          (fun ((x : var), rhs) ->
            let binders, b = collect_binders rhs in
            let params =
              List.filter_map
                (function `Val x -> Some x | `Ty _ -> None)
                binders
            in
            if params = [] then None else Some (x, params, b))
          pairs
      in
      let fenv' =
        List.fold_left
          (fun fe (name, m) -> Ident.Map.add name m fe)
          fenv (fix_masks fenv defs)
      in
      List.fold_left
        (fun s ((x : var), _) -> Ident.Set.remove x.v_name s)
        (strict_vars fenv' body) pairs
  | Join (jb, body) ->
      (* The body runs first. Jumps inside it propagate demand into
         their arguments via the masks (threaded by the caller through
         [fenv]); the labels themselves are not values. *)
      List.fold_left
        (fun s (j : var) -> Ident.Set.remove j.v_name s)
        (strict_vars fenv body)
        (binders_of_jbind jb)
  | Jump (j, _, es, _) -> (
      match Ident.Map.find_opt j.v_name fenv with
      | Some (_, mask) when List.length mask = List.length es ->
          List.fold_left2
            (fun acc strict e ->
              if strict then Ident.Set.union acc (strict_vars fenv e)
              else acc)
            Ident.Set.empty mask es
      | _ -> Ident.Set.empty)

(* A saturated call to a function with a known mask forces the head and
   the strict arguments. *)
and spine_strict fenv e =
  let head, args = collect_args e in
  let vargs =
    List.filter_map (function `Val a -> Some a | `Ty _ -> None) args
  in
  match head with
  | Var v -> (
      let self = Ident.Set.singleton v.v_name in
      match Ident.Map.find_opt v.v_name fenv with
      | Some (arity, mask) when List.length vargs = arity ->
          List.fold_left2
            (fun acc strict a ->
              if strict then Ident.Set.union acc (strict_vars fenv a)
              else acc)
            self mask vargs
      | _ -> self)
  | _ -> strict_vars fenv head

(** Which parameters of a (stripped) body are strictly demanded. *)
and strict_params fenv (params : var list) (body : expr) : bool list =
  let s = strict_vars fenv body in
  List.map (fun (p : var) -> Ident.Set.mem p.v_name s) params

(* Descending fixpoint for a recursive group: start with every
   parameter assumed strict; recompute until the masks stabilise. *)
and fix_masks (fenv : fenv) (defs : (var * var list * expr) list) :
    (Ident.t * (int * bool list)) list =
  let init =
    List.map
      (fun ((jv : var), params, _) ->
        (jv.v_name, (List.length params, List.map (fun _ -> true) params)))
      defs
  in
  let rec iterate masks =
    let env =
      List.fold_left
        (fun fe (name, m) -> Ident.Map.add name m fe)
        fenv masks
    in
    let masks' =
      List.map
        (fun ((jv : var), params, body) ->
          (jv.v_name, (List.length params, strict_params env params body)))
        defs
    in
    if masks' = masks then masks else iterate masks'
  in
  iterate init

(* ------------------------------------------------------------------ *)
(* Strictification                                                     *)
(* ------------------------------------------------------------------ *)

(* Strictification counts are reported per-invocation via Telemetry
   ([Strict_let] / [Strict_arg] ticks). *)

(* Is it worth (and sound by demand) forcing this argument early? WHNFs
   and trivial expressions gain nothing. *)
let worth_forcing e = not (is_trivial e || is_whnf e)

(* Wrap the strict arguments of an argument list in strict bindings
   around [mk args']. [site] is the call/jump target, for the ledger. *)
let strictify_args ~(site : string) (mask : bool list) (es : expr list)
    (mk : expr list -> expr) : expr =
  let wraps = ref [] in
  let es' =
    List.map2
      (fun strict e ->
        if strict && worth_forcing e then begin
          Telemetry.tick Telemetry.Strict_arg;
          Decision.record ~pass:"demand" Decision.Strict_arg ~site
            Decision.Fired;
          let ty = match ty_of e with t -> t | exception _ -> Types.unit in
          let t = mk_var "s" ty in
          wraps := (fun body -> Let (Strict (t, e), body)) :: !wraps;
          Var t
        end
        else e)
      mask es
  in
  match !wraps with
  | [] -> mk es
  | wraps -> List.fold_left (fun body w -> w body) (mk es') wraps

let mask_of_lambda fenv rhs =
  let binders, body = collect_binders rhs in
  let params =
    List.filter_map (function `Val x -> Some x | `Ty _ -> None) binders
  in
  if params = [] then None
  else Some (List.length params, strict_params fenv params body)

(* Strip a lambda chain to (params, body); [None] if no value params. *)
let lambda_parts rhs =
  let binders, body = collect_binders rhs in
  let params =
    List.filter_map (function `Val x -> Some x | `Ty _ -> None) binders
  in
  if params = [] then None else Some (params, body)

(* Rebuild an application spine from [collect_args]'s arguments, the
   value arguments taken from [vals]. *)
let rec rebuild_spine e args vals =
  match args with
  | [] -> e
  | `Ty t :: rest -> rebuild_spine (TyApp (e, t)) rest vals
  | `Val _ :: rest -> (
      match vals with
      | v :: vals -> rebuild_spine (App (e, v)) rest vals
      | [] -> assert false)

(** One bottom-up strictification pass. A node none of whose children
    changed is returned itself. *)
let rec strictify_expr (fenv : fenv) (e : expr) : expr =
  match e with
  | App _ | TyApp _ -> strictify_spine fenv e
  | Let (NonRec (x, rhs), body) ->
      let rhs' = strictify_expr fenv rhs in
      let fenv_body =
        match mask_of_lambda fenv rhs' with
        | Some m -> Ident.Map.add x.v_name m fenv
        | None -> fenv
      in
      let body' = strictify_expr fenv_body body in
      let keep () =
        if rhs' == rhs && body' == body then e
        else Let (NonRec (x, rhs'), body')
      in
      (* Demanded lazy bindings become strict bindings. The demand set
         is only computed when it can matter — or when a ledger wants
         the demanded-but-already-WHNF refusals too. *)
      let forced = worth_forcing rhs' in
      if forced || Decision.enabled () then begin
        let demanded =
          Ident.Set.mem x.v_name (strict_vars fenv_body body')
        in
        if forced && demanded then begin
          Telemetry.tick Telemetry.Strict_let;
          Decision.record ~pass:"demand" Decision.Strict_let
            ~site:(Ident.site x.v_name) Decision.Fired;
          Let (Strict (x, rhs'), body')
        end
        else begin
          if demanded && not forced then
            Decision.record ~pass:"demand" Decision.Strict_let
              ~site:(Ident.site x.v_name)
              (Decision.Rejected Decision.Already_whnf);
          keep ()
        end
      end
      else keep ()
  | Let (Rec pairs, _) ->
      let defs =
        List.filter_map
          (fun ((x : var), rhs) ->
            Option.map (fun (ps, b) -> (x, ps, b)) (lambda_parts rhs))
          pairs
      in
      let masks = fix_masks fenv defs in
      let fenv' =
        List.fold_left
          (fun fe (name, m) -> Ident.Map.add name m fe)
          fenv masks
      in
      map_subterms (strictify_expr fenv') e
  | Join (jb, body) ->
      let masks =
        match jb with
        | JNonRec d ->
            [
              ( d.j_var.v_name,
                ( List.length d.j_params,
                  strict_params fenv d.j_params d.j_rhs ) );
            ]
        | JRec ds ->
            fix_masks fenv
              (List.map (fun d -> (d.j_var, d.j_params, d.j_rhs)) ds)
      in
      let fenv' =
        List.fold_left
          (fun fe (name, m) -> Ident.Map.add name m fe)
          fenv masks
      in
      (* Jumps inside the rhss (recursive case) see the masks too. *)
      let rhs_env = match jb with JNonRec _ -> fenv | JRec _ -> fenv' in
      let jb' = map_jbind (strictify_expr rhs_env) jb in
      let body' = strictify_expr fenv' body in
      if jb' == jb && body' == body then e else Join (jb', body')
  | Jump (j, phis, es, ty) -> (
      let es' = map_shared (strictify_expr fenv) es in
      let jump vals = if vals == es then e else Jump (j, phis, vals, ty) in
      match Ident.Map.find_opt j.v_name fenv with
      | Some (_, mask) when List.length mask = List.length es' ->
          strictify_args ~site:(Ident.site j.v_name) mask es' jump
      | _ -> jump es')
  | _ -> map_subterms (strictify_expr fenv) e

(* Saturated calls to functions with known masks get their strict
   arguments forced early; other spines are just traversed, the head
   first. *)
and strictify_spine fenv e =
  let head, args = collect_args e in
  let vargs =
    List.filter_map (function `Val a -> Some a | `Ty _ -> None) args
  in
  let masked =
    match head with
    | Var v -> (
        match Ident.Map.find_opt v.v_name fenv with
        | Some (arity, mask) when List.length vargs = arity -> Some (v, mask)
        | _ -> None)
    | _ -> None
  in
  match masked with
  | Some (v, mask) ->
      let vargs' = map_shared (strictify_expr fenv) vargs in
      strictify_args ~site:(Ident.site v.v_name) mask vargs' (fun vals ->
          if vals == vargs then e else rebuild_spine head args vals)
  | None ->
      let head' = strictify_expr fenv head in
      let vargs' = map_shared (strictify_expr fenv) vargs in
      if head' == head && vargs' == vargs then e
      else rebuild_spine head' args vargs'

(** Run strictification over a whole program. *)
let strictify (e : expr) : expr = strictify_expr Ident.Map.empty e
