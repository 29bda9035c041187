(** Abstract interpretation over Core — see the interface for the
    design. *)

open Syntax

(* ------------------------------------------------------------------ *)
(* The lattice                                                         *)
(* ------------------------------------------------------------------ *)

type aval =
  | Bot
  | Const of Literal.t
  | Shape of string * aval list
  | Fun
  | Top

(* Constructor shapes are cut at this nesting depth: deeper structure
   widens to Top, which bounds every ascending chain (a recursive
   [let xs = Cons 1 xs] otherwise grows a shape per round forever). *)
let max_shape_depth = 4

let rec clamp d v =
  if d <= 0 then match v with Bot -> Bot | _ -> Top
  else
    match v with
    | Shape (n, fs) -> Shape (n, List.map (clamp (d - 1)) fs)
    | v -> v

let rec join_aval a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Top, _ | _, Top -> Top
  | Const l1, Const l2 -> if Literal.equal l1 l2 then a else Top
  | Shape (n1, fs1), Shape (n2, fs2) ->
      if String.equal n1 n2 && List.length fs1 = List.length fs2 then
        Shape (n1, List.map2 join_aval fs1 fs2)
      else Top
  | Fun, Fun -> Fun
  | _ -> Top

let rec equal_aval a b =
  match (a, b) with
  | Bot, Bot | Fun, Fun | Top, Top -> true
  | Const l1, Const l2 -> Literal.equal l1 l2
  | Shape (n1, fs1), Shape (n2, fs2) ->
      String.equal n1 n2
      && List.length fs1 = List.length fs2
      && List.for_all2 equal_aval fs1 fs2
  | _ -> false

let rec pp_aval ppf = function
  | Bot -> Fmt.string ppf "_|_"
  | Top -> Fmt.string ppf "T"
  | Fun -> Fmt.string ppf "fun"
  | Const l -> Literal.pp ppf l
  | Shape (n, []) -> Fmt.string ppf n
  | Shape (n, fs) ->
      Fmt.pf ppf "(%s %a)" n (Fmt.list ~sep:(Fmt.any " ") pp_aval) fs

let aval_to_string v = Fmt.str "%a" pp_aval v

let rec concretizes v (t : Eval.tree) =
  match (v, t) with
  | Top, _ -> true
  | Bot, _ -> false
  | Fun, Eval.TFun -> true
  | Fun, _ -> false
  | Const l, Eval.TLit l' -> Literal.equal l l'
  | Const _, _ -> false
  | Shape (n, fs), Eval.TCon (n', ts) ->
      String.equal n n'
      && List.length fs = List.length ts
      && List.for_all2 concretizes fs ts
  | Shape _, _ -> false

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)
(* ------------------------------------------------------------------ *)

(* Chaotic iteration with one global worklist collapsed to "re-run the
   whole program while any fixpoint cell moved". The cells are the
   flow variables of the framework: join-point parameters (fed by
   jumps — the join graph is the program's CFG) and recursive-let
   binders. Everything else is environment-passed. *)
type state = {
  mutable iters : int;
  mutable changed : bool;
  mutable binders : aval Ident.Map.t;  (* last-round value per binder *)
  cells : aval Ident.Tbl.t;  (* join params + recursive binders *)
  jparams : var list Ident.Tbl.t;  (* join label -> parameter binders *)
  reached : unit Ident.Tbl.t;  (* join labels jumped to at least once *)
}

let cell_value st (x : Ident.t) =
  match Ident.Tbl.find_opt st.cells x with Some v -> v | None -> Top

let init_cell st (x : Ident.t) =
  if not (Ident.Tbl.mem st.cells x) then Ident.Tbl.replace st.cells x Bot

let raise_cell st (x : Ident.t) v =
  let old = match Ident.Tbl.find_opt st.cells x with Some v -> v | None -> Bot in
  let u = clamp max_shape_depth (join_aval old v) in
  if not (equal_aval u old) then begin
    Ident.Tbl.replace st.cells x u;
    st.changed <- true
  end

let record st (x : var) v = st.binders <- Ident.Map.add x.v_name v st.binders

(* Alternatives a scrutinee abstraction can still reach: a known
   literal or shape selects its exact match, falling back to the
   default; ⊤ keeps everything; ⊥ nothing. *)
let feasible_alts sv alts =
  let defaults () =
    List.filter (fun a -> a.alt_pat = PDefault) alts
  in
  match sv with
  | Bot -> []
  | Const l -> (
      match
        List.filter
          (fun a ->
            match a.alt_pat with
            | PLit l' -> Literal.equal l l'
            | _ -> false)
          alts
      with
      | [] -> defaults ()
      | exact -> exact)
  | Shape (n, _) -> (
      match
        List.filter
          (fun a ->
            match a.alt_pat with
            | PCon (dc, _) -> String.equal dc.Datacon.name n
            | _ -> false)
          alts
      with
      | [] -> defaults ()
      | exact -> exact)
  | Top | Fun -> alts

let rec aeval st (env : aval Ident.Map.t) (e : expr) : aval =
  match e with
  | Var v -> (
      match Ident.Map.find_opt v.v_name env with
      | Some a -> a
      | None -> (
          (* Recursive binders and join parameters live in cells;
             anything else free here is an analysis hole: Top. *)
          match Ident.Tbl.find_opt st.cells v.v_name with
          | Some a -> a
          | None -> Top))
  | Lit l -> Const l
  | Con (dc, _, es) ->
      clamp max_shape_depth
        (Shape (dc.Datacon.name, List.map (aeval st env) es))
  | Prim (op, es) -> (
      let avs = List.map (aeval st env) es in
      if List.exists (fun a -> a = Bot) avs then Bot
      else
        match
          List.fold_right
            (fun a acc ->
              match (a, acc) with
              | Const l, Some ls -> Some (l :: ls)
              | _ -> None)
            avs (Some [])
        with
        | None -> Top
        | Some ls -> (
            match Primop.fold op ls with
            | Lit l -> Const l
            | Bool b -> Shape ((Datacon.of_bool b).Datacon.name, [])
            | Stuck -> Top))
  | App (f, a) -> (
      let vf = aeval st env f in
      let _ = aeval st env a in
      (* No interprocedural step: a call to anything but ⊥ is ⊤. *)
      match vf with Bot -> Bot | _ -> Top)
  | TyApp (f, _) -> ( match aeval st env f with Bot -> Bot | _ -> Top)
  | Lam (x, b) ->
      record st x Top;
      let _ = aeval st (Ident.Map.add x.v_name Top env) b in
      Fun
  | TyLam (_, b) ->
      let _ = aeval st env b in
      Fun
  | Let (NonRec (x, rhs), body) ->
      let v = aeval st env rhs in
      record st x v;
      aeval st (Ident.Map.add x.v_name v env) body
  | Let (Strict (x, rhs), body) ->
      let v = aeval st env rhs in
      record st x v;
      (* A strict let forces its rhs first: no rhs value, no body. *)
      if v = Bot then Bot
      else aeval st (Ident.Map.add x.v_name v env) body
  | Let (Rec pairs, body) ->
      List.iter (fun ((x : var), _) -> init_cell st x.v_name) pairs;
      List.iter
        (fun ((x : var), rhs) ->
          raise_cell st x.v_name (aeval st env rhs);
          record st x (cell_value st x.v_name))
        pairs;
      aeval st env body
  | Case (scrut, alts) -> (
      let sv = aeval st env scrut in
      match feasible_alts sv alts with
      | [] -> Bot
      | alts ->
          List.fold_left
            (fun acc { alt_pat; alt_rhs } ->
              let env' =
                match (alt_pat, sv) with
                | PCon (_, xs), Shape (_, fs)
                  when List.length xs = List.length fs ->
                    List.fold_left2
                      (fun env (x : var) f ->
                        record st x f;
                        Ident.Map.add x.v_name f env)
                      env xs fs
                | PCon (_, xs), _ ->
                    List.fold_left
                      (fun env (x : var) ->
                        record st x Top;
                        Ident.Map.add x.v_name Top env)
                      env xs
                | _ -> env
              in
              join_aval acc (aeval st env' alt_rhs))
            Bot alts)
  | Join (jb, body) ->
      let ds = join_defns jb in
      List.iter
        (fun (d : join_defn) ->
          Ident.Tbl.replace st.jparams d.j_var.v_name d.j_params;
          List.iter (fun (p : var) -> init_cell st p.v_name) d.j_params)
        ds;
      (* Body first: its jumps seed the parameter cells the rhss read
         this very round (inner loops converge over global rounds). *)
      let bv = aeval st env body in
      let rvs =
        List.map
          (fun (d : join_defn) ->
            List.iter
              (fun (p : var) -> record st p (cell_value st p.v_name))
              d.j_params;
            (Ident.Tbl.mem st.reached d.j_var.v_name, aeval st env d.j_rhs))
          ds
      in
      (* The expression's value is the body's, plus the rhs of every
         join point some jump actually reaches. *)
      List.fold_left
        (fun acc (reached, rv) -> if reached then join_aval acc rv else acc)
        bv rvs
  | Jump (j, _, es, _) ->
      let avs = List.map (aeval st env) es in
      (match Ident.Tbl.find_opt st.jparams j.v_name with
      | None -> ()  (* unbound label: the verifier's problem *)
      | Some ps ->
          if not (Ident.Tbl.mem st.reached j.v_name) then begin
            Ident.Tbl.replace st.reached j.v_name ();
            st.changed <- true
          end;
          let rec feed ps avs =
            match (ps, avs) with
            | (p : var) :: ps, a :: avs ->
                raise_cell st p.v_name a;
                feed ps avs
            | _ -> ()
          in
          feed ps avs);
      (* A jump never returns a value to its own context. *)
      Bot

type result = {
  r_value : aval;
  r_binders : aval Ident.Map.t;
  r_iterations : int;
}

let default_max_rounds = 64

let analyze ?(max_rounds = default_max_rounds) e =
  let body () =
    let st =
      {
        iters = 0;
        changed = false;
        binders = Ident.Map.empty;
        cells = Ident.Tbl.create 64;
        jparams = Ident.Tbl.create 16;
        reached = Ident.Tbl.create 16;
      }
    in
    let rec loop () =
      st.changed <- false;
      st.iters <- st.iters + 1;
      st.binders <- Ident.Map.empty;
      let v = aeval st Ident.Map.empty e in
      if not st.changed then v
      else if st.iters < max_rounds then loop ()
      else begin
        (* Give up on precision, never on soundness: widen every
           fixpoint cell to ⊤ and take one last stable round. *)
        Ident.Tbl.iter
          (fun x _ -> Ident.Tbl.replace st.cells x Top)
          st.cells;
        st.iters <- st.iters + 1;
        st.binders <- Ident.Map.empty;
        aeval st Ident.Map.empty e
      end
    in
    let v = loop () in
    { r_value = v; r_binders = st.binders; r_iterations = st.iters }
  in
  let r = Span.with_span ~cat:"analysis" "absint.analyze" body in
  Metrics.incr "absint.analyses";
  Metrics.observe "absint.fixpoint_rounds" (float_of_int r.r_iterations);
  r

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let let_binders e =
  let acc = ref [] in
  let rec go e =
    (match e with
    | Let (b, _) -> acc := List.rev_append (binders_of_bind b) !acc
    | Join (jb, _) -> acc := List.rev_append (binders_of_jbind jb) !acc
    | _ -> ());
    iter_sub go e
  and iter_sub f = function
    | Var _ | Lit _ -> ()
    | Con (_, _, es) | Prim (_, es) -> List.iter f es
    | App (a, b) ->
        f a;
        f b
    | TyApp (a, _) | Lam (_, a) | TyLam (_, a) -> f a
    | Let (b, body) ->
        List.iter (fun (_, rhs) -> f rhs) (bind_pairs b);
        f body
    | Case (s, alts) ->
        f s;
        List.iter (fun a -> f a.alt_rhs) alts
    | Join (jb, body) ->
        List.iter (fun (d : join_defn) -> f d.j_rhs) (join_defns jb);
        f body
    | Jump (_, _, es, _) -> List.iter f es
  in
  go e;
  List.rev !acc

(* The binder-dependency graph: an occurrence of [b] inside the rhs of
   binding [c] is the edge c -> b ("b is demanded only if c is");
   occurrences on the program spine (bodies, scrutinees, arguments not
   under any rhs) root b directly. Dead = unreachable from the root —
   a count of 0 in {!Occur.census} (zero occurrences anywhere) is the
   edgeless special case, and a binding referenced only by dead
   bindings also dies. *)
let dead_binders e =
  let universe =
    List.fold_left
      (fun s (x : var) -> Ident.Set.add x.v_name s)
      Ident.Set.empty (let_binders e)
  in
  (* deps: owner unique -> binders its rhs mentions; None owner = root. *)
  let deps : Ident.Set.t Ident.Tbl.t = Ident.Tbl.create 64 in
  let root_uses = ref Ident.Set.empty in
  let use owner x =
    if Ident.Set.mem x universe then
      match owner with
      | None -> root_uses := Ident.Set.add x !root_uses
      | Some o ->
          let cur =
            match Ident.Tbl.find_opt deps o with
            | Some s -> s
            | None -> Ident.Set.empty
          in
          Ident.Tbl.replace deps o (Ident.Set.add x cur)
  in
  let rec go owner e =
    match e with
    | Var v -> use owner v.v_name
    | Lit _ -> ()
    | Con (_, _, es) | Prim (_, es) -> List.iter (go owner) es
    | App (a, b) ->
        go owner a;
        go owner b
    | TyApp (a, _) | Lam (_, a) | TyLam (_, a) -> go owner a
    | Let (b, body) ->
        List.iter
          (fun ((x : var), rhs) -> go (Some x.v_name) rhs)
          (bind_pairs b);
        go owner body
    | Case (s, alts) ->
        go owner s;
        List.iter (fun a -> go owner a.alt_rhs) alts
    | Join (jb, body) ->
        List.iter
          (fun (d : join_defn) -> go (Some d.j_var.v_name) d.j_rhs)
          (join_defns jb);
        go owner body
    | Jump (j, _, es, _) ->
        use owner j.v_name;
        List.iter (go owner) es
  in
  go None e;
  (* Reachability from the root over the dependency edges. *)
  let live = ref Ident.Set.empty in
  let rec visit x =
    if not (Ident.Set.mem x !live) then begin
      live := Ident.Set.add x !live;
      match Ident.Tbl.find_opt deps x with
      | Some s -> Ident.Set.iter visit s
      | None -> ()
    end
  in
  Ident.Set.iter visit !root_uses;
  Ident.Set.diff universe !live

(* ------------------------------------------------------------------ *)
(* The join-point discipline verifier                                  *)
(* ------------------------------------------------------------------ *)

(* Unlike Lint (which raises at the first error), the verifier walks
   the whole tree collecting every violation, and distinguishes *why*
   a jump's frame is gone: [delta] holds the labels still jumpable,
   [blocked] the labels lexically visible but severed from the
   evaluation context, mapped to the construct that reset Δ. *)
type vctx = {
  delta : (int * int) Ident.Map.t;  (* label -> (tyvar, param) arity *)
  blocked : string Ident.Map.t;  (* label -> what reset Δ *)
}

let verify e =
  let out = ref [] in
  let emit d = out := d :: !out in
  let jumped : unit Ident.Tbl.t = Ident.Tbl.create 16 in
  let reset why ctx =
    {
      delta = Ident.Map.empty;
      blocked =
        Ident.Map.fold
          (fun l _ b -> Ident.Map.add l why b)
          ctx.delta ctx.blocked;
    }
  in
  let is_join ctx (x : Ident.t) =
    Ident.Map.mem x ctx.delta || Ident.Map.mem x ctx.blocked
  in
  let check_join_binder (d : join_defn) =
    let want =
      Types.join_point_ty d.j_tyvars
        (List.map (fun (p : var) -> p.v_ty) d.j_params)
    in
    if not (Types.equal d.j_var.v_ty want) then
      emit
        (Diagnostic.error "join-binder-type"
           ~site:(Ident.site d.j_var.v_name)
           (Fmt.str
              "join binder %a has type %a, should be %a"
              Ident.pp d.j_var.v_name Types.pp d.j_var.v_ty Types.pp want))
  in
  let dead_join (d : join_defn) =
    if not (Ident.Tbl.mem jumped d.j_var.v_name) then
      emit
        (Diagnostic.warning "dead-join"
           ~site:(Ident.site d.j_var.v_name)
           (Fmt.str "join point %a is never jumped to" Ident.pp
              d.j_var.v_name))
  in
  let rec go ctx e =
    match e with
    | Var v ->
        if is_join ctx v.v_name then
          emit
            (Diagnostic.error "join-as-value"
               ~site:(Ident.site v.v_name)
               (Fmt.str "join point %a used as a first-class value"
                  Ident.pp v.v_name))
    | Lit _ -> ()
    | Con (_, _, es) ->
        List.iter (go (reset "a constructor argument" ctx)) es
    | Prim (_, es) ->
        List.iter (go (reset "a primop argument" ctx)) es
    | App (f, a) ->
        (match f with
        | Lit _ ->
            emit
              (Diagnostic.error "ill-formed-application" ~site:"<top>"
                 "a literal in application-head position")
        | Con _ ->
            emit
              (Diagnostic.error "ill-formed-application" ~site:"<top>"
                 "a saturated constructor in application-head position")
        | _ -> ());
        go ctx f;  (* evaluation position: Δ flows into the head *)
        go (reset "a function argument" ctx) a
    | TyApp (f, _) -> go ctx f
    | Lam (_, b) -> go (reset "a lambda body" ctx) b
    | TyLam (_, b) -> go (reset "a type-lambda body" ctx) b
    | Let ((NonRec (_, rhs) | Strict (_, rhs)), body) ->
        go (reset "a let right-hand side" ctx) rhs;
        go ctx body
    | Let (Rec pairs, body) ->
        List.iter
          (fun (_, rhs) ->
            go (reset "a recursive let right-hand side" ctx) rhs)
          pairs;
        go ctx body
    | Case (scrut, alts) ->
        go ctx scrut;  (* evaluation position *)
        List.iter (fun a -> go ctx a.alt_rhs) alts  (* tail positions *)
    | Join (JNonRec d, body) ->
        check_join_binder d;
        (* Non-recursive: the rhs is a tail context of the *outer*
           joins only; the body sees d. *)
        go ctx d.j_rhs;
        go
          {
            ctx with
            delta =
              Ident.Map.add d.j_var.v_name
                (List.length d.j_tyvars, List.length d.j_params)
                ctx.delta;
          }
          body;
        dead_join d
    | Join (JRec ds, body) ->
        List.iter check_join_binder ds;
        let ctx' =
          {
            ctx with
            delta =
              List.fold_left
                (fun m (d : join_defn) ->
                  Ident.Map.add d.j_var.v_name
                    (List.length d.j_tyvars, List.length d.j_params)
                    m)
                ctx.delta ds;
          }
        in
        (* Recursive group: each rhs may jump to every sibling. *)
        List.iter (fun (d : join_defn) -> go ctx' d.j_rhs) ds;
        go ctx' body;
        List.iter dead_join ds
    | Jump (j, phis, es, _) -> (
        List.iter (go (reset "a jump argument" ctx)) es;
        match Ident.Map.find_opt j.v_name ctx.delta with
        | Some (nty, nval) ->
            Ident.Tbl.replace jumped j.v_name ();
            if List.length phis <> nty || List.length es <> nval then
              emit
                (Diagnostic.error "jump-arity"
                   ~site:(Ident.site j.v_name)
                   (Fmt.str
                      "jump to %a with %d type and %d value argument(s); \
                       the join point takes exactly (%d, %d)"
                      Ident.pp j.v_name (List.length phis) (List.length es)
                      nty nval))
        | None -> (
            match Ident.Map.find_opt j.v_name ctx.blocked with
            | Some why ->
                (* Still mark it jumped: the bug is the escape, not
                   an unused join point. *)
                Ident.Tbl.replace jumped j.v_name ();
                emit
                  (Diagnostic.error "jump-escape"
                     ~site:(Ident.site j.v_name)
                     (Fmt.str
                        "jump to %a from inside %s: the join frame is no \
                         longer in the evaluation context"
                        Ident.pp j.v_name why))
            | None ->
                emit
                  (Diagnostic.error "jump-unbound"
                     ~site:(Ident.site j.v_name)
                     (Fmt.str "jump to unbound label %a" Ident.pp j.v_name))))
  in
  let r =
    Span.with_span ~cat:"analysis" "absint.verify" (fun () ->
        go { delta = Ident.Map.empty; blocked = Ident.Map.empty } e;
        List.rev !out)
  in
  Metrics.incr "absint.verifies";
  r

(* ------------------------------------------------------------------ *)
(* Missed optimizations                                                *)
(* ------------------------------------------------------------------ *)

(* The ledger cross-reference: the last *rejection* recorded for this
   site names the pass that looked at the binding and declined, and
   why. No event at all is itself informative ("no pass considered
   it"). *)
let ledger_verdict decisions site =
  let mine =
    List.filter
      (fun (ev : Decision.event) -> String.equal ev.Decision.d_site site)
      decisions
  in
  match
    List.fold_left
      (fun acc (ev : Decision.event) ->
        match ev.Decision.d_verdict with
        | Decision.Rejected r -> Some (ev.Decision.d_pass, r)
        | Decision.Fired -> acc)
      None mine
  with
  | Some (pass, reason) ->
      (Some pass, Some (Fmt.str "%a" Decision.pp_reason reason))
  | None ->
      if mine = [] then (None, Some "no ledger entry for this site")
      else (None, Some "every ledger entry for this site fired")

let missed ~decisions e' =
  let body () =
    let r = analyze e' in
    let out = ref [] in
    let emit d = out := d :: !out in
    (* Simple value lookup against the final binder table: enough to
       recognise "all arguments constant" / "scrutinee shape known"
       at a site without re-running the engine. *)
    let rec sval e =
      match e with
      | Lit l -> Const l
      | Var v -> (
          match Ident.Map.find_opt v.v_name r.r_binders with
          | Some a -> a
          | None -> Top)
      | Con (dc, _, es) ->
          clamp max_shape_depth (Shape (dc.Datacon.name, List.map sval es))
      | _ -> Top
    in
    let warn check ~site msg =
      let pass, reason = ledger_verdict decisions site in
      emit (Diagnostic.warning ?pass ?reason check ~site msg)
    in
    let rec go site e =
      match e with
      | Var _ | Lit _ -> ()
      | Con (_, _, es) -> List.iter (go site) es
      | Prim (op, es) ->
          (match
             List.fold_right
               (fun e acc ->
                 match (sval e, acc) with
                 | Const l, Some ls -> Some (l :: ls)
                 | _ -> None)
               es (Some [])
           with
          | Some ls when Primop.fold op ls <> Stuck ->
              warn "missed-constant-fold" ~site
                (Fmt.str
                   "primop %s applied to provably constant arguments (%a) \
                    survived the pipeline"
                   (Primop.name op)
                   (Fmt.list ~sep:(Fmt.any ", ") Literal.pp)
                   ls)
          | _ -> ());
          List.iter (go site) es
      | App (f, a) ->
          go site f;
          go site a
      | TyApp (f, _) -> go site f
      | Lam (_, b) | TyLam (_, b) -> go site b
      | Let (b, body) ->
          List.iter
            (fun ((x : var), rhs) -> go (Ident.site x.v_name) rhs)
            (bind_pairs b);
          go site body
      | Case (scrut, alts) ->
          (match sval scrut with
          | (Const _ | Shape _) as sv
            when List.length alts > 1
                 && List.length (feasible_alts sv alts) = 1 ->
              warn "missed-case-fold" ~site
                (Fmt.str
                   "case scrutinee is provably %s: a single alternative is \
                    reachable, yet %d survived the pipeline"
                   (aval_to_string sv) (List.length alts))
          | _ -> ());
          go site scrut;
          List.iter (fun a -> go site a.alt_rhs) alts
      | Join (jb, body) ->
          List.iter
            (fun (d : join_defn) -> go (Ident.site d.j_var.v_name) d.j_rhs)
            (join_defns jb);
          go site body
      | Jump (_, _, es, _) -> List.iter (go site) es
    in
    go "<top>" e';
    (* Transitively dead bindings that survived, cross-checked against
       the occurrence analyser: "syntactically dead" means Occur sees
       count zero too; otherwise only the dependency graph proves it. *)
    let dead = dead_binders e' in
    if not (Ident.Set.is_empty dead) then begin
      let census = Occur.census e' in
      List.iter
        (fun (x : var) ->
          if Ident.Set.mem x.v_name dead then
            let syntactic =
              match Occur.use census x with
              | Some u -> u.count = 0
              | None -> true
            in
            warn "missed-dead-binding" ~site:(Ident.site x.v_name)
              (Fmt.str "binding %a is %s, yet survived the pipeline"
                 Ident.pp x.v_name
                 (if syntactic then "dead (no occurrences; Occur agrees)"
                  else
                    "transitively dead (used only by dead bindings — \
                     beyond Occur's reach)")))
        (let_binders e')
    end;
    (List.rev !out, r.r_iterations)
  in
  let r = Span.with_span ~cat:"analysis" "absint.missed" body in
  Metrics.incr "absint.missed_scans";
  r

(* ------------------------------------------------------------------ *)
(* The [fjc check] driver                                              *)
(* ------------------------------------------------------------------ *)

type check_result = {
  c_diagnostics : Diagnostic.t list;
  c_errors : int;
  c_warnings : int;
  c_iterations : int;
  c_value : aval;
}

let check ~config e =
  Span.with_span ~cat:"analysis" "absint.check" @@ fun () ->
  let discipline = verify e in
  let r = analyze e in
  let missed_ds, missed_iters =
    if List.exists Diagnostic.is_error discipline then ([], 0)
    else
      match
        Pipeline.run_report
          { config with Pipeline.mode = Pipeline.Join_points }
          e
      with
      | e', report -> missed ~decisions:(Pipeline.decisions report) e'
      | exception exn ->
          ( [
              Diagnostic.warning "analysis-pipeline-failed" ~site:"<top>"
                (Fmt.str "Join_points pipeline failed under analysis: %s"
                   (Printexc.to_string exn));
            ],
            0 )
  in
  let ds = discipline @ missed_ds in
  let errors, warnings = Diagnostic.count ds in
  Metrics.incr "absint.checks";
  {
    c_diagnostics = ds;
    c_errors = errors;
    c_warnings = warnings;
    c_iterations = r.r_iterations + missed_iters;
    c_value = r.r_value;
  }
