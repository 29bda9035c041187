(** The Simplifier: a context-passing partial evaluator in the style of
    GHC's Simplifier (Sec. 7), implementing the Fig. 4 equational theory
    wholesale — inlining, beta reduction, case-of-known-constructor,
    dead-code elimination, constant folding, and the commuting
    conversions ([float], [casefloat], [jfloat], [abort]).

    The traversal builds up a representation of the evaluation context
    (the continuation {!cont}) as it goes. The two join-point behaviours
    the paper highlights need only two cases:

    - {e jfloat}: when traversing a join-point binding, the current
      continuation is copied into the right-hand side(s);
    - {e abort}: when traversing a jump, the current continuation is
      thrown away (and the jump's claimed result type re-pointed).

    Everything else treats join points exactly like let bindings.

    A {!config} chooses between the {b join-point compiler} and the
    {b baseline} (pre-join-point GHC): in baseline mode, when
    case-of-case must share the outer alternatives it binds them as
    ordinary [let]-bound functions — the paper's "ordinary let binding
    (as GHC does today)" — which both allocates and blocks further
    commuting; in join mode it binds them as join points. *)

open Syntax

type config = {
  join_points : bool;
      (** Use join points for shared case alternatives ([jfloat] /
          [abort] enabled). When false, behave like pre-join-point GHC. *)
  case_of_case : bool;  (** Enable the commuting conversions at all. *)
  inline_threshold : int;  (** Max size of an unfolding spliced at a site. *)
  dup_threshold : int;
      (** Continuations no larger than this are duplicated into case
          branches directly rather than shared via a join point. *)
  datacons : Datacon.env;
}

let default_config ?(join_points = true) ?(case_of_case = true)
    ?(inline_threshold = 60) ?(dup_threshold = 12)
    ?(datacons = Datacon.builtins) () =
  { join_points; case_of_case; inline_threshold; dup_threshold; datacons }

(* ------------------------------------------------------------------ *)
(* Environment and continuations                                       *)
(* ------------------------------------------------------------------ *)

type env = {
  cfg : config;
  subst : Subst.t;  (** Pending renamings / substitutions. *)
  unf : expr Ident.Map.t;
      (** Unfoldings of in-scope (post-cloning) let binders whose
          right-hand sides are values; used for call-site inlining. *)
  usage : Occur.census;  (** Binder usage, from pass start. *)
  changed : bool ref;
}

(** Usage of a binder; conservative for binders introduced mid-pass. *)
let usage_of env (x : var) : Occur.use =
  match Occur.use env.usage x with
  | Some u -> u
  | None -> { count = 2; under_lam = true }

type cont =
  | Stop
  | CApp of env * expr * cont  (** [[] e] with [e] not yet simplified. *)
  | CTyApp of Types.t * cont  (** [[] tau], [tau] already substituted. *)
  | CCase of env * alt list * cont  (** [case [] of alts]. *)

let rec cont_is_stop = function
  | Stop -> true
  | _ -> false

and cont_size = function
  | Stop -> 0
  | CApp (_, arg, k) -> 1 + size arg + cont_size k
  | CTyApp (_, k) -> cont_size k
  | CCase (_, alts, k) ->
      List.fold_left (fun n a -> n + 1 + size a.alt_rhs) 1 alts + cont_size k

(* The type delivered by the continuation, given the type flowing into
   its hole. Uses [ty_of] on raw alternatives, whose binders carry
   their (substituted) types. *)
let rec cont_res_ty env (k : cont) (hole_ty : Types.t) : Types.t =
  match k with
  | Stop -> hole_ty
  | CApp (_, _, k') -> (
      match hole_ty with
      | Types.Arrow (_, r) -> cont_res_ty env k' r
      | _ -> raise (Ill_typed "cont_res_ty: application of non-function"))
  | CTyApp (t, k') -> (
      match hole_ty with
      | Types.Forall (a, body) -> cont_res_ty env k' (Types.subst1 a t body)
      | _ -> raise (Ill_typed "cont_res_ty: instantiation of non-forall"))
  | CCase (aenv, alts, k') -> (
      match alts with
      | [] -> raise (Ill_typed "cont_res_ty: empty case")
      | a :: _ -> cont_res_ty env k' (Subst.subst_ty aenv.subst (ty_of a.alt_rhs)))

(* ------------------------------------------------------------------ *)
(* The simplifier                                                      *)
(* ------------------------------------------------------------------ *)

(* Record a change AND attribute it: every rewrite the simplifier
   performs ticks a named counter (GHC's simplifier ticks). *)
let mark env t =
  env.changed := true;
  Telemetry.tick t

(* This pass's name in the decision ledger. *)
let dpass = "simplify"

(* The ledger site for a decision about a case alternative: the
   constructor being matched, or [alt._] for literal/default arms. *)
let alt_site = function
  | PCon (dc, _) -> "alt." ^ String.lowercase_ascii dc.name
  | PLit _ | PDefault -> "alt._"

(* Ledger a pre-inline verdict for binder [x]. Rejections quote the
   occurrence fact that blocked the substitution. *)
let record_pre_inline (x : var) (info : Occur.use) ~fired =
  if Decision.enabled () then
    let site = Ident.site x.v_name in
    let verdict =
      if fired then Decision.Fired
      else if info.count > 1 then
        Decision.Rejected (Decision.Occurs_many { count = info.count })
      else Decision.Rejected Decision.Escapes_under_lambda
    in
    Decision.record ~pass:dpass Decision.Pre_inline ~site verdict

(* The [float]/[casefloat] axioms are implicit in the traversal: when a
   binding is reached with a non-empty continuation, the context is
   passed into its body. Not a {!mark} — the traversal always does
   this; the tick merely attributes the commuting work. *)
let tick_context_passed (_ : env) (k : cont) =
  match k with
  | Stop -> ()
  | CCase _ -> Telemetry.tick Telemetry.Casefloat
  | CApp _ | CTyApp _ -> Telemetry.tick Telemetry.Commute

let rec simpl (env : env) (e : expr) (k : cont) : expr =
  match e with
  | Var v -> (
      match Ident.Map.find_opt v.v_name env.subst.terms with
      | Some e' ->
          (* A pending substitution: [e'] is already simplified (it was
             a trivial expression or a once-used rhs). Re-enter so it
             can interact with the continuation. *)
          simpl { env with subst = Subst.empty } e' k
      | None ->
          let v = { v with v_ty = Subst.subst_ty env.subst v.v_ty } in
          consider_inline env v k)
  | Lit _ -> rebuild env e k
  | Con (dc, phis, es) ->
      let phis = List.map (Subst.subst_ty env.subst) phis in
      let es = List.map (fun e -> simpl env e Stop) es in
      rebuild env (Con (dc, phis, es)) k
  | Prim (op, es) -> (
      let es = List.map (fun e -> simpl env e Stop) es in
      let lits = List.filter_map (function Lit l -> Some l | _ -> None) es in
      if List.length lits = List.length es then
        match Primop.fold_lit op lits with
        | Some l ->
            mark env Telemetry.Constant_fold;
            rebuild env (Lit l) k
        | None -> (
            match Primop.fold_bool op lits with
            | Some b ->
                mark env Telemetry.Constant_fold;
                rebuild env (Con (Datacon.of_bool b, [], [])) k
            | None -> rebuild env (Prim (op, es)) k)
      else rebuild env (Prim (op, es)) k)
  | App (f, a) -> simpl env f (CApp (env, a, k))
  | TyApp (f, t) -> simpl env f (CTyApp (Subst.subst_ty env.subst t, k))
  | Lam (x, body) -> (
      match k with
      | CApp (aenv, arg, k') ->
          (* beta: bind the argument, continue into the body. *)
          mark env Telemetry.Beta;
          let arg' = simpl aenv arg Stop in
          bind_arg env x arg' (fun env' -> simpl env' body k')
      | _ ->
          let x', s = Subst.clone_var env.subst x in
          let body' = simpl { env with subst = s } body Stop in
          rebuild env (Lam (x', body')) k)
  | TyLam (a, body) -> (
      match k with
      | CTyApp (t, k') ->
          (* beta_tau *)
          mark env Telemetry.Beta_tau;
          simpl { env with subst = Subst.add_type a t env.subst } body k'
      | _ ->
          let a', s = Subst.clone_tyvar env.subst a in
          let body' = simpl { env with subst = s } body Stop in
          rebuild env (TyLam (a', body')) k)
  | Let (NonRec (x, rhs), body) ->
      tick_context_passed env k;
      simpl_nonrec env x rhs body k
  | Let (Strict (x, rhs), body) ->
      tick_context_passed env k;
      let rhs' = simpl env rhs Stop in
      if is_whnf rhs' || is_trivial rhs' then
        (* The demand is already satisfied: an ordinary binding now. *)
        bind_arg env x rhs' (fun env' -> simpl env' body k)
      else begin
        let x', s = Subst.clone_var env.subst x in
        let env' = { env with subst = s } in
        let body' = simpl env' body k in
        if
          (not (occurs x'.v_name body'))
          && Cleanup.ok_for_speculation rhs'
        then begin
          mark env Telemetry.Drop;
          body'
        end
        else Let (Strict (x', rhs'), body')
      end
  | Let (Rec pairs, body) ->
      tick_context_passed env k;
      (* Recursive binders never get unfoldings (GHC's loop breakers),
         so call-site inlining of them is off the table — say so. *)
      (if Decision.enabled () then
         List.iter
           (fun ((x : var), _) ->
             Decision.record ~pass:dpass Decision.Inline
               ~site:(Ident.site x.v_name)
               (Decision.Rejected Decision.Loop_breaker))
           pairs);
      let xs = List.map fst pairs in
      let xs', s = Subst.clone_vars env.subst xs in
      let env' = { env with subst = s } in
      let pairs' =
        List.map2 (fun x' (_, rhs) -> (x', simpl env' rhs Stop)) xs' pairs
      in
      (* The context passes the binding (the [float] axiom). *)
      let body' = simpl env' body k in
      if
        List.for_all
          (fun (x' : var) -> not (occurs x'.v_name body'))
          (List.map fst pairs')
        && List.for_all
             (fun (x' : var) ->
               List.for_all
                 (fun (_, rhs') -> not (occurs x'.v_name rhs'))
                 pairs')
             (List.map fst pairs')
      then begin
        mark env Telemetry.Drop;
        body'
      end
      else Let (Rec pairs', body')
  | Case (scrut, alts) -> simpl env scrut (CCase (env, alts, k))
  | Join (jb, body) -> simpl_join env jb body k
  | Jump (j, phis, es, tau) ->
      let j' =
        match Ident.Map.find_opt j.v_name env.subst.terms with
        | Some (Var v) -> v
        | Some _ -> invalid_arg "Simplify: label mapped to non-variable"
        | None -> { j with v_ty = Subst.subst_ty env.subst j.v_ty }
      in
      let phis' = List.map (Subst.subst_ty env.subst) phis in
      let es' = List.map (fun e -> simpl env e Stop) es in
      let tau0 = Subst.subst_ty env.subst tau in
      (* abort: the continuation is discarded; the jump claims the type
         the continuation would have delivered. *)
      if not (cont_is_stop k) then mark env Telemetry.Abort;
      let tau' = cont_res_ty env k tau0 in
      Jump (j', phis', es', tau')

(* ------------------------------------------------------------------ *)
(* Binding                                                             *)
(* ------------------------------------------------------------------ *)

(* A once-used binding may be substituted when doing so cannot
   duplicate {e work}: either the occurrence is not under a lambda, or
   the right-hand side is itself a lambda (re-"evaluating" a lambda is
   free — though note that, unlike GHC, we deliberately keep once-used
   {e constructors} shared, since duplicating them duplicates
   allocation). *)
and once_inlinable (info : Occur.use) (rhs' : expr) =
  info.count = 1
  && ((not info.under_lam)
     || match rhs' with Lam _ | TyLam _ -> true | _ -> false)

(* Bind [x] to the already-simplified [arg'] around [body_k]. Trivial
   arguments and work-safe once-used arguments are substituted;
   otherwise a let is built (and an unfolding recorded if the rhs is a
   value). Dead binders are dropped (sound under call-by-name/need). *)
and bind_arg env (x : var) (arg' : expr) (body_k : env -> expr) : expr =
  let info = usage_of env x in
  if info.count = 0 then begin
    mark env Telemetry.Drop;
    body_k env
  end
  else if is_trivial arg' || once_inlinable info arg' then begin
    if not (is_trivial arg') then begin
      mark env Telemetry.Pre_inline;
      record_pre_inline x info ~fired:true
    end;
    body_k { env with subst = Subst.add_term x.v_name arg' env.subst }
  end
  else begin
    record_pre_inline x info ~fired:false;
    let x', s = Subst.clone_var env.subst x in
    (* ANF-ise constructor right-hand sides so the unfolding can be
       duplicated without losing sharing of its fields. *)
    anf_con env arg' (fun env arg'' ->
        let env' =
          {
            env with
            subst = s;
            unf =
              (if is_whnf arg'' then Ident.Map.add x'.v_name arg'' env.unf
               else env.unf);
          }
        in
        let body' = body_k env' in
        if occurs x'.v_name body' then Let (NonRec (x', arg''), body')
        else begin
          mark env Telemetry.Drop;
          body'
        end)
  end

(* Give a constructor application trivial fields by let-binding any
   non-trivial ones. [k] receives the env (with unfoldings for the new
   binders) and the flattened constructor. *)
and anf_con env (e : expr) (k : env -> expr -> expr) : expr =
  match e with
  | Con (dc, phis, args) when not (List.for_all is_trivial args) ->
      let rec go env acc wraps = function
        | [] -> (
            let args' = List.rev acc in
            let body = k env (Con (dc, phis, args')) in
            match wraps body with b -> b)
        | a :: rest ->
            if is_trivial a then go env (a :: acc) wraps rest
            else
              let ty =
                match ty_of a with
                | t -> t
                | exception _ -> Types.bottom ()
              in
              (* Provenance: name the field binder after the
                 constructor it feeds, so the allocation profiler can
                 attribute the field's thunk to it (e.g. [cons.f]). *)
              let x = mk_var (String.lowercase_ascii dc.name ^ ".f") ty in
              let env' =
                if is_whnf a then
                  { env with unf = Ident.Map.add x.v_name a env.unf }
                else env
              in
              go env'
                (Var x :: acc)
                (fun b -> wraps (Let (NonRec (x, a), b)))
                rest
      in
      mark env Telemetry.Anf_con;
      go env [] Fun.id args
  | _ -> k env e

and simpl_nonrec env (x : var) rhs body k =
  let info = usage_of env x in
  if info.count = 0 then begin
    (* drop (dead code): never simplify nor emit the rhs. *)
    mark env Telemetry.Drop;
    simpl env body k
  end
  else
    let rhs' = simpl env rhs Stop in
    if is_trivial rhs' || once_inlinable info rhs' then begin
      (* preInlineUnconditionally: substitute the simplified rhs. *)
      if not (is_trivial rhs') then begin
        mark env Telemetry.Pre_inline;
        record_pre_inline x info ~fired:true
      end;
      simpl { env with subst = Subst.add_term x.v_name rhs' env.subst } body k
    end
    else begin
      record_pre_inline x info ~fired:false;
      bind_emit env x rhs' (fun env' -> simpl env' body k)
    end

(* Emit a let binding for [x] = [rhs'] (already simplified), recording
   an unfolding, and continue with the body. The continuation [k] flows
   into the body — the [float] axiom. *)
and bind_emit env (x : var) (rhs' : expr) (body_k : env -> expr) : expr =
  let x0, s = Subst.clone_var env.subst x in
  anf_con env rhs' (fun env rhs'' ->
      let env' =
        {
          env with
          subst = s;
          unf =
            (if is_whnf rhs'' then Ident.Map.add x0.v_name rhs'' env.unf
             else env.unf);
        }
      in
      let body' = body_k env' in
      if occurs x0.v_name body' then Let (NonRec (x0, rhs''), body')
      else begin
        mark env Telemetry.Drop;
        body'
      end)


(* ------------------------------------------------------------------ *)
(* Join points                                                         *)
(* ------------------------------------------------------------------ *)

(* jfloat: the continuation is made duplicable, then copied into every
   right-hand side and the body. The join binder itself keeps its
   bottom-returning type. *)
and simpl_join env jb body k =
  if not env.cfg.join_points then begin
    (* The baseline IR has no join points; demote defensively. *)
    Telemetry.tick Telemetry.Demote;
    (if Decision.enabled () then
       let defns = match jb with JNonRec d -> [ d ] | JRec ds -> ds in
       List.iter
         (fun d ->
           Decision.record ~pass:dpass Decision.Demote
             ~site:(Ident.site d.j_var.v_name) Decision.Fired)
         defns);
    simpl env (Demote.demote_top (Join (jb, body))) k
  end
  else begin
    (* jfloat: a non-empty continuation is about to be copied into the
       right-hand side(s) (after being made duplicable). *)
    if not (cont_is_stop k) then Telemetry.tick Telemetry.Jfloat;
    let wrap, kdup = mk_dupable env k in
    match jb with
    | JNonRec d ->
        let info = usage_of env d.j_var in
        if info.count = 0 then begin
          mark env Telemetry.Jdrop;
          wrap (simpl env body kdup)
        end
        else
          let d', env_body = simpl_defn env d kdup in
          let body' = simpl env_body body kdup in
          if occurs d'.j_var.v_name body' then
            wrap (Join (JNonRec d', body'))
          else begin
            mark env Telemetry.Jdrop;
            wrap body'
          end
    | JRec ds ->
        let jvs = List.map (fun d -> d.j_var) ds in
        let jvs', s = Subst.clone_vars env.subst jvs in
        let env' = { env with subst = s } in
        let ds' =
          List.map2
            (fun (jv' : var) d ->
              let tvs', s' = Subst.clone_tyvars env'.subst d.j_tyvars in
              let ps', s' = Subst.clone_vars s' d.j_params in
              let denv = { env' with subst = s' } in
              {
                j_var = jv';
                j_tyvars = tvs';
                j_params = ps';
                j_rhs = simpl denv d.j_rhs kdup;
              })
            jvs' ds
        in
        let body' = simpl env' body kdup in
        let live =
          List.exists
            (fun (jv' : var) ->
              occurs jv'.v_name body'
              || List.exists (fun d -> occurs jv'.v_name d.j_rhs) ds')
            jvs'
        in
        if live then wrap (Join (JRec ds', body'))
        else begin
          mark env Telemetry.Jdrop;
          wrap body'
        end
  end

(* Simplify one non-recursive join definition under continuation [kdup];
   returns the new definition and the body environment with the label
   renamed. *)
and simpl_defn env (d : join_defn) kdup =
  let jv', s_body = Subst.clone_var env.subst d.j_var in
  let tvs', s = Subst.clone_tyvars env.subst d.j_tyvars in
  let ps', s = Subst.clone_vars s d.j_params in
  let denv = { env with subst = s } in
  let rhs' = simpl denv d.j_rhs kdup in
  ( { j_var = jv'; j_tyvars = tvs'; j_params = ps'; j_rhs = rhs' },
    { env with subst = s_body } )

(* ------------------------------------------------------------------ *)
(* mk_dupable: prepare a continuation for duplication                   *)
(* ------------------------------------------------------------------ *)

(* Returns [wrap, k'] where [k'] is small enough to copy into several
   branches and [wrap] binds whatever was shared to make that so. For a
   case continuation with large alternatives, the alternatives are
   bound as join points (join mode) or let-bound functions (baseline
   mode — "as GHC does today", which is precisely what destroys the
   optimisation and costs allocation, Sec. 2). *)
and mk_dupable env (k : cont) : (expr -> expr) * cont =
  match k with
  | Stop -> (Fun.id, Stop)
  | _ when cont_size k <= env.cfg.dup_threshold -> (Fun.id, k)
  | CTyApp (t, k') ->
      let wrap, k'' = mk_dupable env k' in
      (wrap, CTyApp (t, k''))
  | CApp (aenv, arg, k') ->
      let wrap, k'' = mk_dupable env k' in
      let arg' = simpl aenv arg Stop in
      if is_trivial arg' then
        (wrap, CApp ({ env with subst = Subst.empty }, arg', k''))
      else
        let ty = match ty_of arg' with t -> t | exception _ -> Types.bottom () in
        let a = mk_var "arg" ty in
        let wrap' e = wrap (Let (NonRec (a, arg'), e)) in
        (wrap', CApp ({ env with subst = Subst.empty }, Var a, k''))
  | CCase (aenv, alts, k') ->
      let wrap, k'' = mk_dupable env k' in
      (* Simplify each alternative under k'' — this is where the outer
         context is absorbed — then share any large result. *)
      let wraps = ref [] in
      let alts' =
        List.map
          (fun { alt_pat; alt_rhs } ->
            match alt_pat with
            | PCon (dc, xs) ->
                let xs', s = Subst.clone_vars aenv.subst xs in
                let rhs' = simpl { aenv with subst = s } alt_rhs k'' in
                share_alt env wraps (PCon (dc, xs')) xs' rhs'
            | (PLit _ | PDefault) as p ->
                let rhs' = simpl aenv alt_rhs k'' in
                share_alt env wraps p [] rhs')
          alts
      in
      let wrap_all e =
        wrap (List.fold_left (fun e w -> w e) e !wraps)
      in
      (wrap_all, CCase ({ env with subst = Subst.empty }, alts', Stop))

(* Share one simplified alternative: small ones are kept inline; large
   ones become a join point (or, in baseline mode, a let-bound
   function) jumped to (called) with the pattern binders. *)
and share_alt env wraps pat (xs : var list) (rhs' : expr) : alt =
  let sz = size rhs' in
  if sz <= env.cfg.dup_threshold then begin
    Decision.record ~pass:dpass Decision.Dup_alt ~site:(alt_site pat)
      Decision.Fired;
    { alt_pat = pat; alt_rhs = rhs' }
  end
  else begin
    Decision.record ~pass:dpass Decision.Dup_alt ~site:(alt_site pat)
      (Decision.Rejected
         (Decision.Dup_threshold_shared
            { size = sz; threshold = env.cfg.dup_threshold }));
    mark env Telemetry.Share_alt;
    let res_ty =
      match ty_of rhs' with t -> t | exception _ -> Types.bottom ()
    in
    if env.cfg.join_points then begin
      (* Bind the alternative as a join point. *)
      let params = List.map refresh_var xs in
      let s =
        List.fold_left2
          (fun s (x : var) (p : var) -> Subst.add_term x.v_name (Var p) s)
          Subst.empty xs params
      in
      let j_rhs = Subst.expr s rhs' in
      let jv = mk_join_var "j" [] params in
      let defn = { j_var = jv; j_tyvars = []; j_params = params; j_rhs } in
      wraps := (fun e -> Join (JNonRec defn, e)) :: !wraps;
      {
        alt_pat = pat;
        alt_rhs = Jump (jv, [], List.map (fun x -> Var x) xs, res_ty);
      }
    end
    else begin
      (* Baseline: an ordinary let-bound function (allocates a closure;
         scrutinising its call is uninformative). *)
      let params = List.map refresh_var xs in
      let s =
        List.fold_left2
          (fun s (x : var) (p : var) -> Subst.add_term x.v_name (Var p) s)
          Subst.empty xs params
      in
      let f_rhs = lams params (Subst.expr s rhs') in
      let f_ty =
        Types.arrows (List.map (fun (p : var) -> p.v_ty) params) res_ty
      in
      let f = mk_var "j" f_ty in
      wraps := (fun e -> Let (NonRec (f, f_rhs), e)) :: !wraps;
      { alt_pat = pat; alt_rhs = apps (Var f) (List.map (fun x -> Var x) xs) }
    end
  end

(* ------------------------------------------------------------------ *)
(* Rebuilding                                                          *)
(* ------------------------------------------------------------------ *)

(* The focus [e] is fully simplified (an answer or a neutral term);
   feed it to the continuation. *)
and rebuild env (e : expr) (k : cont) : expr =
  match k with
  | Stop -> e
  | CApp (aenv, arg, k') -> (
      match e with
      | Lam _ -> simpl { env with subst = Subst.empty } e k
      | _ ->
          let arg' = simpl aenv arg Stop in
          rebuild env (App (e, arg')) k')
  | CTyApp (t, k') -> (
      match e with
      | TyLam _ -> simpl { env with subst = Subst.empty } e k
      | _ -> rebuild env (TyApp (e, t)) k')
  | CCase (aenv, alts, k') -> rebuild_case env e aenv alts k'

and rebuild_case env scrut aenv alts k' =
  match scrut with
  | Con (dc, _, args) -> (
      (* case-of-known-constructor *)
      let pick { alt_pat; _ } =
        match alt_pat with PCon (d, _) -> Datacon.equal d dc | _ -> false
      in
      match
        ( List.find_opt pick alts,
          List.find_opt (fun a -> a.alt_pat = PDefault) alts )
      with
      | Some { alt_pat = PCon (_, xs); alt_rhs }, _ ->
          mark env Telemetry.Case_of_known;
          let rec bind_all env xs args =
            match (xs, args) with
            | [], [] -> simpl env alt_rhs k'
            | x :: xs, arg :: args ->
                bind_arg env x arg (fun env -> bind_all env xs args)
            | _ -> invalid_arg "rebuild_case: constructor arity mismatch"
          in
          bind_all aenv xs args
      | None, Some { alt_rhs; _ } ->
          mark env Telemetry.Case_of_known;
          simpl aenv alt_rhs k'
      | _ ->
          (* No alternative can match: this is dead code, but we have no
             way to express that; rebuild as-is. *)
          rebuild_case_neutral env scrut aenv alts k')
  | Lit l -> (
      let pick { alt_pat; _ } =
        match alt_pat with PLit l' -> Literal.equal l l' | _ -> false
      in
      match
        ( List.find_opt pick alts,
          List.find_opt (fun a -> a.alt_pat = PDefault) alts )
      with
      | Some { alt_rhs; _ }, _ | None, Some { alt_rhs; _ } ->
          mark env Telemetry.Case_of_known;
          simpl aenv alt_rhs k'
      | _ -> rebuild_case_neutral env scrut aenv alts k')
  | _ -> rebuild_case_neutral env scrut aenv alts k'

and rebuild_case_neutral env scrut aenv alts k' =
  (* case-elim: [case x of _ -> rhs] when [x] is known evaluated. *)
  match (alts, scrut) with
  | [ { alt_pat = PDefault; alt_rhs } ], Var v
    when Ident.Map.mem v.v_name env.unf ->
      mark env Telemetry.Case_elim;
      simpl aenv alt_rhs k'
  | _ ->
      if env.cfg.case_of_case && not (cont_is_stop k') then begin
        (* The commuting conversion: push the (dupable) context into
           every branch. *)
        Telemetry.tick Telemetry.Case_of_case;
        let wrap, kdup = mk_dupable env k' in
        let alts' = simpl_alts aenv alts kdup in
        wrap (Case (scrut, alts'))
      end
      else
        let alts' = simpl_alts aenv alts Stop in
        rebuild env (Case (scrut, alts')) k'

and simpl_alts aenv alts k =
  List.map
    (fun { alt_pat; alt_rhs } ->
      match alt_pat with
      | PCon (dc, xs) ->
          let xs', s = Subst.clone_vars aenv.subst xs in
          { alt_pat = PCon (dc, xs'); alt_rhs = simpl { aenv with subst = s } alt_rhs k }
      | (PLit _ | PDefault) as p ->
          { alt_pat = p; alt_rhs = simpl aenv alt_rhs k })
    alts

(* ------------------------------------------------------------------ *)
(* Call-site inlining                                                  *)
(* ------------------------------------------------------------------ *)

and consider_inline env (v : var) (k : cont) : expr =
  match Ident.Map.find_opt v.v_name env.unf with
  | None -> rebuild env (Var v) k
  | Some u ->
      let site = Ident.site v.v_name in
      let splice () =
        mark env Telemetry.Inline;
        Decision.record ~pass:dpass Decision.Inline ~site Decision.Fired;
        simpl { env with subst = Subst.empty } (Subst.freshen u) k
      in
      let reject reason =
        Decision.record ~pass:dpass Decision.Inline ~site
          (Decision.Rejected reason);
        rebuild env (Var v) k
      in
      if is_trivial u then splice ()
      else
        let sz = size u in
        if sz > env.cfg.inline_threshold then
          reject
            (Decision.Inline_too_big
               { size = sz; threshold = env.cfg.inline_threshold })
        else (
          match (u, k) with
          | Con _, CCase _ -> splice ()
          | Lam _, CApp _ -> splice ()
          | TyLam _, CTyApp _ -> splice ()
          | Lit _, _ -> splice ()
          | _ -> reject Decision.Uninformative_context)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** One simplifier pass over a complete term. Returns the new term and
    whether anything changed. *)
let run_pass (cfg : config) (e : expr) : expr * bool =
  let changed = ref false in
  let env =
    {
      cfg;
      subst = Subst.empty;
      unf = Ident.Map.empty;
      usage = Occur.census e;
      changed;
    }
  in
  let e' = simpl env e Stop in
  (e', !changed)

(** Iterate {!run_pass} (interleaved with the {!Cleanup} of dead and
    once-used join points) until a fixpoint or [max_iters]. *)
let simplify ?(max_iters = 8) (cfg : config) (e : expr) : expr =
  let e = Fault.point "simplify/input" e in
  let rec go i e =
    if i >= max_iters then e
    else
      let e, changed = run_pass cfg e in
      let e, cleaned = Cleanup.cleanup e in
      if changed || cleaned then go (i + 1) e else e
  in
  Fault.point "simplify/result" (go 0 e)
