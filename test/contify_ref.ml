(** The map-based contify, kept as the reference that
    [Fj_core.Contify] is checked against.

    [Occur] below is the occurrence analysis as a map: for every free
    variable of a term, its count, whether an occurrence sits under a
    lambda, and whether every occurrence is a saturated tail call of
    one shape (Sec. 4: "essentially a free-variable analysis that also
    tracks whether each free variable has appeared only in the holes of
    tail contexts"). [contify] builds that map bottom-up at every node
    alongside the contified tree, and decides each binding from its
    scope's map. [Fj_core.Contify] makes the same decisions from one
    walk with a cell per binder; [test_contify] requires equal output
    trees, sharing, ledgers, ticks and supply positions. *)

open Fj_core
open Syntax

module Occur = struct
  (** Shape of a call: number of type arguments and value arguments. *)
  type call_shape = { n_ty : int; n_val : int }

  type info = {
    count : int;  (** Total number of occurrences. *)
    under_lam : bool;  (** Some occurrence is under a (ty)lambda. *)
    all_tail : bool;  (** Every occurrence is a call in tail position. *)
    shape : call_shape option;
        (** The consistent call shape, if [all_tail] and all occurrences
            agree; meaningless otherwise. *)
  }

  type t = info Ident.Map.t

  let no_info = { count = 0; under_lam = false; all_tail = true; shape = None }

  let merge_info a b =
    let shape_ok =
      match (a.shape, b.shape) with
      | Some s, Some s' -> if s = s' then Some s else None
      | None, s | s, None -> s
    in
    let consistent =
      match (a.shape, b.shape) with
      | Some s, Some s' -> s = s'
      | _ -> true
    in
    {
      count = a.count + b.count;
      under_lam = a.under_lam || b.under_lam;
      all_tail = a.all_tail && b.all_tail && consistent;
      shape = shape_ok;
    }

  let union : t -> t -> t =
    Ident.Map.union (fun _ a b -> Some (merge_info a b))

  let unions = List.fold_left union Ident.Map.empty

  (* [m] with [f] applied to the entries that satisfy [p]. Only those are
     re-added: a context over a large scope usually changes few entries,
     and copying the whole map at every level made nested contexts
     quadratic. *)
  let adjust p f (m : t) : t =
    Ident.Map.fold
      (fun x i acc -> if p i then Ident.Map.add x (f i) acc else acc)
      m m

  (** Mark every entry as occurring under a lambda and (therefore) not in
      tail position. *)
  let under_lambda (m : t) : t =
    adjust
      (fun i -> i.all_tail || not i.under_lam)
      (fun i -> { i with under_lam = true; all_tail = false })
      m

  (** Mark every entry as not in tail position (used for evaluation
      positions like case scrutinees and for argument positions). *)
  let non_tail (m : t) : t =
    adjust (fun i -> i.all_tail) (fun i -> { i with all_tail = false }) m

  (** Mark every entry as work-duplicating if inlined (an occurrence
      inside a {e recursive} join's right-hand side runs once per jump),
      without disturbing tail-ness — outer bindings may still be
      contified. *)
  let work_dup (m : t) : t =
    adjust (fun i -> not i.under_lam) (fun i -> { i with under_lam = true }) m

  (** Usage of [x] within [e] ([e] regarded as being in tail position). *)
  let lookup (m : t) (x : var) =
    Option.value ~default:no_info (Ident.Map.find_opt x.v_name m)

  (* ------------------------------------------------------------------ *)
  (* Per-node rules                                                      *)
  (* ------------------------------------------------------------------ *)

  (* A node's usage from its children's. A child may have been analysed
     in tail position or not: wherever a rule puts a child in a non-tail
     position it applies [non_tail] or [under_lambda], which erase the
     difference. [go] below applies the rules while walking an existing
     tree; {!Contify} applies them bottom-up to the tree it builds.
     [of_let] leaves closing its binder to the caller, which reads the
     binder's usage off the body first. *)

  (** Close the scope of binders [xs]: their usage leaves the map. *)
  let rec close xs (m : t) =
    match xs with
    | [] -> m
    | (x : var) :: xs -> close xs (Ident.Map.remove x.v_name m)

  (** The value arguments of a constructor, primop, call or jump. *)
  let of_args ms = non_tail (unions ms)

  (** A lambda binding [xs] (none for a type lambda). *)
  let of_lam xs b = under_lambda (close xs b)

  (** A non-recursive or strict [let], given its body with the binder
      already closed. *)
  let of_let ~rhs ~body = union (non_tail rhs) body

  (** [let rec xs = rhss in body]. *)
  let of_letrec xs ~rhss ~body =
    close xs (union (non_tail (unions rhss)) body)

  (** One alternative [pat -> rhs]. *)
  let of_alt pat rhs = close (pat_binders pat) rhs

  (** [case scrut of alts], given the alternatives from {!of_alt}. *)
  let of_case ~scrut ~alts = union (non_tail scrut) (unions alts)

  (** The right-hand side of [d], one of [jb]'s definitions. Join
      right-hand sides are tail contexts; a recursive one also closes its
      sibling labels, and runs once per jump, so inlining an outer
      binding into it duplicates work. *)
  let of_join_rhs jb d rhs =
    let m = close d.j_params rhs in
    match jb with
    | JNonRec _ -> m
    | JRec _ -> work_dup (close (binders_of_jbind jb) m)

  (** [join jb in body], given the right-hand sides from {!of_join_rhs}. *)
  let of_join jb ~rhss ~body =
    union (unions rhss) (close (binders_of_jbind jb) body)

  (** [jump j phis es], given the usages of [es]. *)
  let of_jump (j : var) phis ms =
    let self =
      Ident.Map.singleton j.v_name
        {
          count = 1;
          under_lam = false;
          all_tail = true;
          shape = Some { n_ty = List.length phis; n_val = List.length ms };
        }
    in
    union self (of_args ms)

  (** An application spine [v args] headed by the variable [v]: a call
      with the spine's shape, a tail call if the spine is in tail
      position. Only a "canonical" spine (all type arguments first) counts
      as a call; anything else is a non-tail naked use. [ms] are the
      usages of the value arguments. *)
  let of_call ~tail (v : var) (args : [ `Ty of Types.t | `Val of expr ] list)
      ms =
    let n_ty =
      List.length (List.filter (function `Ty _ -> true | _ -> false) args)
    in
    let n_val =
      List.length (List.filter (function `Val _ -> true | _ -> false) args)
    in
    let canonical =
      let rec check seen_val = function
        | [] -> true
        | `Ty _ :: rest -> (not seen_val) && check false rest
        | `Val _ :: rest -> check true rest
      in
      check false args
    in
    let self =
      Ident.Map.singleton v.v_name
        {
          count = 1;
          under_lam = false;
          all_tail = tail && canonical;
          shape = (if canonical then Some { n_ty; n_val } else None);
        }
    in
    union self (of_args ms)

  (** A spine whose head is not a variable, given the head's usage. *)
  let of_apply ~head ms = union (non_tail head) (of_args ms)

  (* ------------------------------------------------------------------ *)
  (* The analysis                                                        *)
  (* ------------------------------------------------------------------ *)

  let rec go ~tail (e : expr) : t =
    match e with
    | Var _ | App _ | TyApp _ -> go_spine ~tail e
    | Lit _ -> Ident.Map.empty
    | Con (_, _, es) | Prim (_, es) -> of_args (List.map (go ~tail:false) es)
    | Lam (x, b) -> of_lam [ x ] (go ~tail:false b)
    | TyLam (_, b) -> of_lam [] (go ~tail:false b)
    | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
        let body = close [ x ] (go ~tail body) in
        of_let ~rhs:(go ~tail:false rhs) ~body
    | Let (Rec pairs, body) ->
        let rhss = List.map (fun (_, rhs) -> go ~tail:false rhs) pairs in
        of_letrec (List.map fst pairs) ~rhss ~body:(go ~tail body)
    | Case (scrut, alts) ->
        let scrut = go ~tail:false scrut in
        let alts =
          List.map
            (fun { alt_pat; alt_rhs } -> of_alt alt_pat (go ~tail alt_rhs))
            alts
        in
        of_case ~scrut ~alts
    | Join (jb, body) ->
        let rhss =
          List.map
            (fun d -> of_join_rhs jb d (go ~tail d.j_rhs))
            (join_defns jb)
        in
        of_join jb ~rhss ~body:(go ~tail body)
    | Jump (j, phis, es, _) -> of_jump j phis (List.map (go ~tail:false) es)

  (* An application spine [f @t1 .. @tm a1 .. an]. Mixed spines (type
     args after value args, or non-variable heads) are analyzed
     structurally. *)
  and go_spine ~tail e : t =
    let head, args = collect_args e in
    match head with
    | Var v -> of_call ~tail v args (go_args args)
    | _ ->
        let head = go ~tail:false head in
        of_apply ~head (go_args args)

  (* The uses of a spine's value arguments, in order. *)
  and go_args = function
    | [] -> []
    | `Val a :: args -> go ~tail:false a :: go_args args
    | `Ty _ :: args -> go_args args

  (** Analysis of a complete (tail-position) expression. *)
  let of_expr e = go ~tail:true e

  (** [is_dead m x]: [x] does not occur. *)
  let is_dead m (x : var) = (lookup m x).count = 0

  (** [occurs_once_safely m x]: exactly one occurrence, not under a
      lambda — inlining is work-safe. *)
  let occurs_once_safely m (x : var) =
    let i = lookup m x in
    i.count = 1 && not i.under_lam
end

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

(* {!Syntax.map_shared} for a walk that also returns each element's
   usage. *)
let rec map_used f xs =
  match xs with
  | [] -> (xs, [])
  | x :: rest ->
      let x', m = f x in
      let rest', ms = map_used f rest in
      ((if x' == x && rest' == rest then xs else x' :: rest'), m :: ms)

(* Contify [e], returning the new tree and its usage: {!Occur.of_expr}
   of the new tree, built bottom-up from the children's usages with
   {!Occur}'s per-node rules. A binding reads its binder's usage off its
   contified scope; only a freshly contified join's stripped right-hand
   side is analysed afresh. The decision ledger's order depends on the
   order children are visited in: body before right-hand side for
   [join] and strict [let], alternatives before scrutinee for [case],
   and right to left along an application spine. A node none of whose
   children changed is returned itself. *)
let rec go (e : expr) : expr * Occur.t =
  match e with
  | Var _ | App _ | TyApp _ -> spine e
  | Lit _ -> (e, Ident.Map.empty)
  | Con (dc, phis, es0) ->
      let es, ms = map_used go es0 in
      ((if es == es0 then e else Con (dc, phis, es)), Occur.of_args ms)
  | Prim (op, es0) ->
      let es, ms = map_used go es0 in
      ((if es == es0 then e else Prim (op, es)), Occur.of_args ms)
  | Lam (x, b0) ->
      let b, m = go b0 in
      ((if b == b0 then e else Lam (x, b)), Occur.of_lam [ x ] m)
  | TyLam (a, b0) ->
      let b, m = go b0 in
      ((if b == b0 then e else TyLam (a, b)), Occur.of_lam [] m)
  | Case (scrut0, alts0) ->
      let alts, ms =
        map_used
          (fun a ->
            let rhs, m = go a.alt_rhs in
            ( (if rhs == a.alt_rhs then a else { a with alt_rhs = rhs }),
              Occur.of_alt a.alt_pat m ))
          alts0
      in
      let scrut, s = go scrut0 in
      ( (if scrut == scrut0 && alts == alts0 then e else Case (scrut, alts)),
        Occur.of_case ~scrut:s ~alts:ms )
  | Join (jb0, body0) ->
      let body, mb = go body0 in
      let ds0 = join_defns jb0 in
      let ds, ms =
        map_used
          (fun d ->
            let rhs, m = go d.j_rhs in
            ((if rhs == d.j_rhs then d else { d with j_rhs = rhs }), m))
          ds0
      in
      let jb =
        if ds == ds0 then jb0
        else
          match jb0 with
          | JNonRec _ -> JNonRec (List.hd ds)
          | JRec _ -> JRec ds
      in
      ( (if jb == jb0 && body == body0 then e else Join (jb, body)),
        Occur.of_join jb
          ~rhss:(List.map2 (Occur.of_join_rhs jb) ds ms)
          ~body:mb )
  | Jump (j, phis, es0, ty) ->
      let es, ms = map_used go es0 in
      ( (if es == es0 then e else Jump (j, phis, es, ty)),
        Occur.of_jump j phis ms )
  | Let (Strict (x, rhs0), body0) ->
      let body, mb = go body0 in
      let rhs, mr = go rhs0 in
      ( (if rhs == rhs0 && body == body0 then e
         else Let (Strict (x, rhs), body)),
        Occur.of_let ~rhs:mr ~body:(Occur.close [ x ] mb) )
  | Let (NonRec (x, rhs0), body0) -> (
      let rhs, mr = go rhs0 in
      let body, mb = go body0 in
      let info = Occur.lookup mb x in
      let keep () =
        ( (if rhs == rhs0 && body == body0 then e
           else Let (NonRec (x, rhs), body)),
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
  | Let (Rec pairs0, body0) -> (
      let pairs, rhs_uses =
        map_used
          (fun ((x, rhs0) as p) ->
            let rhs, m = go rhs0 in
            ((if rhs == rhs0 then p else (x, rhs)), m))
          pairs0
      in
      let body, body_usage = go body0 in
      let fallback () =
        ( (if pairs == pairs0 && body == body0 then e
           else Let (Rec pairs, body)),
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
  let head0, args0 = collect_args e in
  let rec go_args args =
    match args with
    | [] -> (args, [])
    | arg :: rest0 -> (
        let rest, ms = go_args rest0 in
        match arg with
        | `Ty _ -> ((if rest == rest0 then args else arg :: rest), ms)
        | `Val a0 ->
            let a, m = go a0 in
            ( (if a == a0 && rest == rest0 then args else `Val a :: rest),
              m :: ms ))
  in
  let args, ms = go_args args0 in
  let rebuild head =
    if head == head0 && args == args0 then e
    else
      List.fold_left
        (fun f -> function `Ty t -> TyApp (f, t) | `Val a -> App (f, a))
        head args
  in
  match head0 with
  | Var v -> (rebuild head0, Occur.of_call ~tail:true v args ms)
  | _ ->
      let head, m = go head0 in
      (rebuild head, Occur.of_apply ~head:m ms)

(** The contified tree and its usage ({!Occur.of_expr} of it). *)
let contify (e : expr) : expr * Occur.t = go e
