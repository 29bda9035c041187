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
    commuting; in join mode it binds them as join points.

    {b Names.} A binder keeps its unique the first time a pass meets
    it. It is cloned (a fresh unique, the renaming pushed for its
    scope) only when the pass meets it again, because its code was
    copied into several branches or is simplified a second time, or
    while a substitution for its unique is pending. The pass's input
    binds each unique once, so the output does too, and a substituted
    term, whose free variables were all met before, cannot be
    captured. This is GHC's rule: rename only what would shadow or is
    duplicated (Peyton Jones and Marlow, "Secrets of the GHC
    inliner"). Cloning every binder would copy every node of every
    iteration.

    {b Usage.} Each decision reads a binder's usage from the census of
    the pass's input. Code the pass has already produced (a pending
    substitution, a lambda re-entered at a redex, the frames
    [mk_dupable] rebuilt) is re-entered with conservative usage, even
    where its binders kept their input uniques: the census describes
    the input's occurrences, not those of the simplified copy. So each
    decision is the one a pass cloning every binder would make.

    {b Sharing.} A node is rebuilt only when one of its parts changed;
    the continuation's frames carry the node they were taken from for
    that. So an iteration that rewrites nothing returns its input
    itself, and {!Guard} does not Lint it again. *)

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
  terms : expr Ident.Tbl.t;
      (** Pending renamings and substitutions of term variables, keyed
          by binder: one table for the whole pass, each entry pushed
          where its binder is met and popped where its scope ends. *)
  seen : unit Ident.Tbl.t;
      (** The binders that kept their unique in this pass so far. *)
  tys : Types.t Ident.Map.t;  (** Pending type substitution. *)
  unf : expr Ident.Map.t;
      (** Unfoldings of in-scope let binders (by their output name)
          whose right-hand sides are values; used for call-site
          inlining. *)
  usage : Occur.census option;
      (** Binder usage, from pass start; [None] in code the pass has
          already produced (see {!reenter}). *)
  changed : bool ref;
}

(* What a binder the census does not describe is assumed to do. *)
let conservative : Occur.use = { count = 2; under_lam = true }

(** Usage of a binder: the census's answer for a binder of the pass's
    input, conservative for one of produced code or one introduced
    mid-pass. *)
let usage_of env (x : var) : Occur.use =
  match env.usage with
  | None -> conservative
  | Some census -> (
      match Occur.use census x with Some u -> u | None -> conservative)

(* Each frame carries the node it was taken from, which {!rebuild}
   returns itself when the parts it rebuilds come back unchanged. *)
type cont =
  | Stop
  | CApp of env * expr * cont * expr
      (** [[] e] with [e] not yet simplified; the [App] node. *)
  | CTyApp of Types.t * cont * expr
      (** [[] tau], [tau] already substituted; the [TyApp] node. *)
  | CCase of env * alt list * cont * expr
      (** [case [] of alts]; the [Case] node. *)

let rec cont_is_stop = function
  | Stop -> true
  | _ -> false

and cont_size = function
  | Stop -> 0
  | CApp (_, arg, k, _) -> 1 + size arg + cont_size k
  | CTyApp (_, k, _) -> cont_size k
  | CCase (_, alts, k, _) ->
      List.fold_left (fun n a -> n + 1 + size a.alt_rhs) 1 alts + cont_size k

let subst_ty env ty = Types.subst env.tys ty

(* The type delivered by the continuation, given the type flowing into
   its hole. Uses [ty_of] on raw alternatives, whose binders carry
   their (substituted) types. *)
let rec cont_res_ty (k : cont) (hole_ty : Types.t) : Types.t =
  match k with
  | Stop -> hole_ty
  | CApp (_, _, k', _) -> (
      match hole_ty with
      | Types.Arrow (_, r) -> cont_res_ty k' r
      | _ -> raise (Ill_typed "cont_res_ty: application of non-function"))
  | CTyApp (t, k', _) -> (
      match hole_ty with
      | Types.Forall (a, body) -> cont_res_ty k' (Types.subst1 a t body)
      | _ -> raise (Ill_typed "cont_res_ty: instantiation of non-forall"))
  | CCase (aenv, alts, k', _) -> (
      match alts with
      | [] -> raise (Ill_typed "cont_res_ty: empty case")
      | a :: _ -> cont_res_ty k' (subst_ty aenv (ty_of a.alt_rhs)))

(* Code this pass has already produced is re-entered with no type
   substitution, since its types are already the output's, and with
   conservative usage: its binders may carry the uniques of input
   binders, whose census entries describe the input's code, not this
   copy. *)
let reenter env = { env with tys = Ident.Map.empty; usage = None }

(* The output binder for the term binder [x]. The first time the pass
   meets [x]'s unique it keeps it, with its type substituted. Met again
   (its code was copied, or is simplified a second time), or while a
   substitution for it is pending, it is cloned: a fresh unique, with
   the renaming pushed for its scope. So the output never binds one
   unique twice, and a substituted term never meets a binder of one of
   its free variables. {!unbind} pops the renaming. *)
let name_var env (x : var) =
  if Ident.Tbl.mem env.seen x.v_name || Ident.Tbl.mem env.terms x.v_name
  then begin
    let x' = { v_name = Ident.refresh x.v_name; v_ty = subst_ty env x.v_ty } in
    Ident.Tbl.add env.terms x.v_name (Var x');
    x'
  end
  else begin
    Ident.Tbl.add env.seen x.v_name ();
    let ty = subst_ty env x.v_ty in
    if ty == x.v_ty then x else { x with v_ty = ty }
  end

let name_vars env xs = map_shared (name_var env) xs

let unbind env (x : var) (x' : var) =
  if not (Ident.equal x.v_name x'.v_name) then
    Ident.Tbl.remove env.terms x.v_name

let rec unbind_all env xs xs' =
  match (xs, xs') with
  | x :: xs, x' :: xs' ->
      unbind env x x';
      unbind_all env xs xs'
  | _ -> ()

(* The same rule for a type binder. One that keeps its unique leaves
   the type substitution as it is: empty, it keeps every type as it
   is, where any entry would rebuild every type below and refresh
   every quantifier. *)
let name_tyvar env a =
  if Ident.Tbl.mem env.seen a || Ident.Map.mem a env.tys then
    let a' = Ident.refresh a in
    (a', { env with tys = Ident.Map.add a (Types.Var a') env.tys })
  else begin
    Ident.Tbl.add env.seen a ();
    (a, env)
  end

let rec name_tyvars env tvs =
  match tvs with
  | [] -> (tvs, env)
  | a :: rest ->
      let a', env = name_tyvar env a in
      let rest', env = name_tyvars env rest in
      ((if a' == a && rest' == rest then tvs else a' :: rest'), env)

(* [f] over [xs] and [ys] pairwise, first to last, returning [xs]
   itself when [f] returned every element unchanged. *)
let rec map2_shared f xs ys =
  match (xs, ys) with
  | x :: rest, y :: ys ->
      let x' = f x y in
      let rest' = map2_shared f rest ys in
      if x' == x && rest' == rest then xs else x' :: rest'
  | _ -> []

(* The sharing rule for the nodes {!rebuild} makes from a frame. *)
let app node f a =
  match node with
  | App (f0, a0) when f0 == f && a0 == a -> node
  | _ -> App (f, a)

let ty_app node f t =
  match node with
  | TyApp (f0, t0) when f0 == f && t0 == t -> node
  | _ -> TyApp (f, t)

let case node scrut alts =
  match node with
  | Case (s0, alts0) when s0 == scrut && alts0 == alts -> node
  | _ -> Case (scrut, alts)

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
let tick_context_passed (k : cont) =
  match k with
  | Stop -> ()
  | CCase _ -> Telemetry.tick Telemetry.Casefloat
  | CApp _ | CTyApp _ -> Telemetry.tick Telemetry.Commute

(* Every node is rebuilt only when a part of it changed: a walk that
   rewrites nothing returns its input itself. *)
let rec simpl (env : env) (e : expr) (k : cont) : expr =
  match e with
  | Var v -> (
      match Ident.Tbl.find_opt env.terms v.v_name with
      | Some (Var v' as e') -> consider_inline env v' e' k
      | Some e' ->
          (* A pending substitution: [e'] is already simplified (it was
             a trivial expression or a once-used rhs). Re-enter so it
             can interact with the continuation. *)
          simpl (reenter env) e' k
      | None ->
          let ty = subst_ty env v.v_ty in
          if ty == v.v_ty then consider_inline env v e k
          else
            let v = { v with v_ty = ty } in
            consider_inline env v (Var v) k)
  | Lit _ -> rebuild env e k
  | Con (dc, phis, es) ->
      let phis' = map_shared (subst_ty env) phis in
      let es' = map_shared (fun e -> simpl env e Stop) es in
      rebuild env
        (if phis' == phis && es' == es then e else Con (dc, phis', es'))
        k
  | Prim (op, es) -> (
      let es' = map_shared (fun e -> simpl env e Stop) es in
      let folded =
        if List.for_all (function Lit _ -> true | _ -> false) es' then
          let lits =
            List.filter_map (function Lit l -> Some l | _ -> None) es'
          in
          match Primop.fold op lits with
          | Primop.Lit l -> Some (Lit l)
          | Bool b -> Some (Con (Datacon.of_bool b, [], []))
          | Stuck -> None
        else None
      in
      match folded with
      | Some e' ->
          mark env Telemetry.Constant_fold;
          rebuild env e' k
      | None -> rebuild env (if es' == es then e else Prim (op, es')) k)
  | App (f, a) -> simpl env f (CApp (env, a, k, e))
  | TyApp (f, t) -> simpl env f (CTyApp (subst_ty env t, k, e))
  | Lam (x, body) -> (
      match k with
      | CApp (aenv, arg, k', _) ->
          (* beta: bind the argument, continue into the body. *)
          mark env Telemetry.Beta;
          let arg' = simpl aenv arg Stop in
          bind_arg env x arg' (fun env' -> simpl env' body k')
      | _ ->
          let x' = name_var env x in
          let body' = simpl env body Stop in
          unbind env x x';
          rebuild env (if x' == x && body' == body then e else Lam (x', body')) k)
  | TyLam (a, body) -> (
      match k with
      | CTyApp (t, k', _) ->
          (* beta_tau *)
          mark env Telemetry.Beta_tau;
          simpl { env with tys = Ident.Map.add a t env.tys } body k'
      | _ ->
          let a', env' = name_tyvar env a in
          let body' = simpl env' body Stop in
          rebuild env
            (if a' == a && body' == body then e else TyLam (a', body'))
            k)
  | Let (NonRec (x, rhs), body) ->
      tick_context_passed k;
      if (usage_of env x).count = 0 then begin
        (* drop (dead code): never simplify nor emit the rhs. *)
        mark env Telemetry.Drop;
        simpl env body k
      end
      else
        bind_arg ~node:e env x (simpl env rhs Stop) (fun env' ->
            simpl env' body k)
  | Let (Strict (x, rhs), body) ->
      tick_context_passed k;
      let rhs' = simpl env rhs Stop in
      if is_whnf rhs' || is_trivial rhs' then
        (* The demand is already satisfied: an ordinary binding now. *)
        bind_arg env x rhs' (fun env' -> simpl env' body k)
      else begin
        let x' = name_var env x in
        let body' = simpl env body k in
        unbind env x x';
        if
          (not (occurs x'.v_name body'))
          && Cleanup.ok_for_speculation rhs'
        then begin
          mark env Telemetry.Drop;
          body'
        end
        else if x' == x && rhs' == rhs && body' == body then e
        else Let (Strict (x', rhs'), body')
      end
  | Let (Rec pairs, body) ->
      tick_context_passed k;
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
      let xs' = name_vars env xs in
      let pairs' =
        map2_shared
          (fun ((x, rhs) as p) x' ->
            let rhs' = simpl env rhs Stop in
            if x' == x && rhs' == rhs then p else (x', rhs'))
          pairs xs'
      in
      (* The context passes the binding (the [float] axiom). *)
      let body' = simpl env body k in
      unbind_all env xs xs';
      if
        List.for_all
          (fun ((x' : var), _) ->
            (not (occurs x'.v_name body'))
            && List.for_all (fun (_, rhs') -> not (occurs x'.v_name rhs')) pairs')
          pairs'
      then begin
        mark env Telemetry.Drop;
        body'
      end
      else if pairs' == pairs && body' == body then e
      else Let (Rec pairs', body')
  | Case (scrut, alts) -> simpl env scrut (CCase (env, alts, k, e))
  | Join (jb, body) -> simpl_join env e jb body k
  | Jump (j, phis, es, tau) ->
      let j' =
        match Ident.Tbl.find_opt env.terms j.v_name with
        | Some (Var v) -> v
        | Some _ -> invalid_arg "Simplify: label mapped to non-variable"
        | None ->
            let ty = subst_ty env j.v_ty in
            if ty == j.v_ty then j else { j with v_ty = ty }
      in
      let phis' = map_shared (subst_ty env) phis in
      let es' = map_shared (fun e -> simpl env e Stop) es in
      let tau0 = subst_ty env tau in
      (* abort: the continuation is discarded; the jump claims the type
         the continuation would have delivered. *)
      if not (cont_is_stop k) then mark env Telemetry.Abort;
      let tau' = cont_res_ty k tau0 in
      if j' == j && phis' == phis && es' == es && tau' == tau then e
      else Jump (j', phis', es', tau')

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
   arguments and work-safe once-used arguments are substituted
   (preInlineUnconditionally); otherwise a let is built (and an
   unfolding recorded if the rhs is a value), into whose body the
   continuation flows — the [float] axiom. Dead binders are dropped
   (sound under call-by-name/need). [node] is the [let] being
   simplified, returned itself when nothing in it changed. *)
and bind_arg ?node env (x : var) (arg' : expr) (body_k : env -> expr) : expr
    =
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
    Ident.Tbl.add env.terms x.v_name arg';
    let e = body_k env in
    Ident.Tbl.remove env.terms x.v_name;
    e
  end
  else begin
    record_pre_inline x info ~fired:false;
    let x' = name_var env x in
    (* ANF-ise constructor right-hand sides so the unfolding can be
       duplicated without losing sharing of its fields. *)
    let e =
      anf_con env arg' (fun env arg'' ->
          let env' =
            {
              env with
              unf =
                (if is_whnf arg'' then Ident.Map.add x'.v_name arg'' env.unf
                 else env.unf);
            }
          in
          let body' = body_k env' in
          if occurs x'.v_name body' then
            match node with
            | Some (Let (NonRec (x0, rhs0), body0) as node)
              when x0 == x' && rhs0 == arg'' && body0 == body' ->
                node
            | _ -> Let (NonRec (x', arg''), body')
          else begin
            mark env Telemetry.Drop;
            body'
          end)
    in
    unbind env x x';
    e
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

(* ------------------------------------------------------------------ *)
(* Join points                                                         *)
(* ------------------------------------------------------------------ *)

(* jfloat: the continuation is made duplicable, then copied into every
   right-hand side and the body. The join binder itself keeps its
   bottom-returning type. [node] is the [join] being simplified. *)
and simpl_join env node jb body k =
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
          let jv' = name_var env d.j_var in
          let d' = simpl_defn env jv' d kdup in
          let body' = simpl env body kdup in
          unbind env d.j_var jv';
          if occurs jv'.v_name body' then
            wrap (if d' == d && body' == body then node else Join (JNonRec d', body'))
          else begin
            mark env Telemetry.Jdrop;
            wrap body'
          end
    | JRec ds ->
        let jvs = List.map (fun d -> d.j_var) ds in
        let jvs' = name_vars env jvs in
        let ds' = map2_shared (fun d jv' -> simpl_defn env jv' d kdup) ds jvs' in
        let body' = simpl env body kdup in
        unbind_all env jvs jvs';
        let live =
          List.exists
            (fun (jv' : var) ->
              occurs jv'.v_name body'
              || List.exists (fun d -> occurs jv'.v_name d.j_rhs) ds')
            jvs'
        in
        if live then
          wrap (if ds' == ds && body' == body then node else Join (JRec ds', body'))
        else begin
          mark env Telemetry.Jdrop;
          wrap body'
        end
  end

(* Simplify one join definition, whose label is already named [jv'],
   under continuation [kdup]. *)
and simpl_defn env jv' (d : join_defn) kdup =
  let tvs', denv = name_tyvars env d.j_tyvars in
  let ps' = name_vars denv d.j_params in
  let rhs' = simpl denv d.j_rhs kdup in
  unbind_all env d.j_params ps';
  if jv' == d.j_var && tvs' == d.j_tyvars && ps' == d.j_params && rhs' == d.j_rhs
  then d
  else { j_var = jv'; j_tyvars = tvs'; j_params = ps'; j_rhs = rhs' }

(* ------------------------------------------------------------------ *)
(* mk_dupable: prepare a continuation for duplication                   *)
(* ------------------------------------------------------------------ *)

(* Returns [wrap, k'] where [k'] is small enough to copy into several
   branches and [wrap] binds whatever was shared to make that so. For a
   case continuation with large alternatives, the alternatives are
   bound as join points (join mode) or let-bound functions (baseline
   mode — "as GHC does today", which is precisely what destroys the
   optimisation and costs allocation, Sec. 2). The frames it builds
   hold produced code, so they re-enter it ({!reenter}). *)
and mk_dupable env (k : cont) : (expr -> expr) * cont =
  match k with
  | Stop -> (Fun.id, Stop)
  | _ when cont_size k <= env.cfg.dup_threshold -> (Fun.id, k)
  | CTyApp (t, k', node) ->
      let wrap, k'' = mk_dupable env k' in
      (wrap, CTyApp (t, k'', node))
  | CApp (aenv, arg, k', node) ->
      let wrap, k'' = mk_dupable env k' in
      let arg' = simpl aenv arg Stop in
      if is_trivial arg' then (wrap, CApp (reenter env, arg', k'', node))
      else
        let ty = match ty_of arg' with t -> t | exception _ -> Types.bottom () in
        let a = mk_var "arg" ty in
        let wrap' e = wrap (Let (NonRec (a, arg'), e)) in
        (wrap', CApp (reenter env, Var a, k'', node))
  | CCase (aenv, alts, k', node) ->
      let wrap, k'' = mk_dupable env k' in
      (* Simplify each alternative under k'' — this is where the outer
         context is absorbed — then share any large result. *)
      let wraps = ref [] in
      let alts' =
        List.map
          (fun { alt_pat; alt_rhs } ->
            match alt_pat with
            | PCon (dc, xs) ->
                let xs' = name_vars aenv xs in
                let rhs' = simpl aenv alt_rhs k'' in
                unbind_all aenv xs xs';
                share_alt env wraps (PCon (dc, xs')) xs' rhs'
            | (PLit _ | PDefault) as p ->
                let rhs' = simpl aenv alt_rhs k'' in
                share_alt env wraps p [] rhs')
          alts
      in
      let wrap_all e =
        wrap (List.fold_left (fun e w -> w e) e !wraps)
      in
      (wrap_all, CCase (reenter env, alts', Stop, node))

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
  | CApp (aenv, arg, k', node) -> (
      match e with
      | Lam _ -> simpl (reenter env) e k
      | _ ->
          let arg' = simpl aenv arg Stop in
          rebuild env (app node e arg') k')
  | CTyApp (t, k', node) -> (
      match e with
      | TyLam _ -> simpl (reenter env) e k
      | _ -> rebuild env (ty_app node e t) k')
  | CCase (aenv, alts, k', node) -> rebuild_case env e aenv alts k' node

and rebuild_case env scrut aenv alts k' node =
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
          rebuild_case_neutral env scrut aenv alts k' node)
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
      | _ -> rebuild_case_neutral env scrut aenv alts k' node)
  | _ -> rebuild_case_neutral env scrut aenv alts k' node

and rebuild_case_neutral env scrut aenv alts k' node =
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
        wrap (case node scrut alts')
      end
      else
        let alts' = simpl_alts aenv alts Stop in
        rebuild env (case node scrut alts') k'

and simpl_alts aenv alts k =
  map_shared
    (fun a ->
      match a.alt_pat with
      | PCon (dc, xs) ->
          let xs' = name_vars aenv xs in
          let rhs' = simpl aenv a.alt_rhs k in
          unbind_all aenv xs xs';
          if xs' == xs && rhs' == a.alt_rhs then a
          else
            {
              alt_pat = (if xs' == xs then a.alt_pat else PCon (dc, xs'));
              alt_rhs = rhs';
            }
      | PLit _ | PDefault ->
          let rhs' = simpl aenv a.alt_rhs k in
          if rhs' == a.alt_rhs then a else { a with alt_rhs = rhs' })
    alts

(* ------------------------------------------------------------------ *)
(* Call-site inlining                                                  *)
(* ------------------------------------------------------------------ *)

(* [e] is the occurrence [Var v]. *)
and consider_inline env (v : var) (e : expr) (k : cont) : expr =
  match Ident.Map.find_opt v.v_name env.unf with
  | None -> rebuild env e k
  | Some u ->
      let site = Ident.site v.v_name in
      let splice () =
        mark env Telemetry.Inline;
        Decision.record ~pass:dpass Decision.Inline ~site Decision.Fired;
        simpl (reenter env) (Subst.freshen u) k
      in
      let reject reason =
        Decision.record ~pass:dpass Decision.Inline ~site
          (Decision.Rejected reason);
        rebuild env e k
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
      terms = Ident.Tbl.create 16;
      seen = Ident.Tbl.create 32;
      tys = Ident.Map.empty;
      unf = Ident.Map.empty;
      usage = Some (Occur.census e);
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
