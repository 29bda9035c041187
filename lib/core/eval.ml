(** The abstract machine of Fig. 3, with allocation accounting.

    A configuration is (focus expression, stack, heap). [eval]
    translates the term once into OCaml closures, one per node, each
    taking exactly that node's Fig. 3 transition: a machine step is a
    call, not a [match] on the term. Variables resolve during the
    translation to {e slots}, a position among the locals bound since
    the enclosing lambda or an index into that lambda's flat capture
    array, found while its body is translated. Join labels resolve to a
    position among the join points in scope; a lambda body sees none,
    as Lint resets the join context under [Lam] and [TyLam]. The
    environment stays persistent, one cons per binding: a recursive
    join re-enters its right-hand side while thunks built by the
    previous iteration still hold theirs.

    Call-by-name is Fig. 3 exactly; call-by-need, which benchmarks use
    since the paper measures GHC, adds standard update frames. A [join]
    binding captures the current stack and a [jump] truncates the stack
    back to it ("adjust the stack and jump", Sec. 2): neither allocates.
    Everything heap-allocated is counted, as GHC's [-ticky] does for
    Table 1: a constructor with [n > 0] fields costs [n + 1] words, a
    closure or thunk 2. [?profile] charges each allocation to its {e
    site}, the name hint of the binder that built it ({!Ident.site}),
    and each step to the thunk, join point or closure entered last. *)

open Syntax

type mode = By_name | By_need

type stats = Mstats.t = {
  mutable steps : int;  (** Machine transitions taken. *)
  mutable objects : int;  (** Heap objects allocated. *)
  mutable words : int;  (** Words allocated (proxy for bytes). *)
  mutable jumps : int;  (** Jumps executed. *)
  mutable joins_entered : int;  (** Join bindings evaluated (free). *)
  mutable calls : int;  (** Applications entering a closure. *)
  mutable updates : int;  (** Thunk updates (call-by-need). *)
  mutable max_stack : int;  (** Stack high-water mark, in frames. *)
}

let pp_stats = Mstats.pp

type operand = Imm of Literal.t | Ptr of cell ref

and value =
  | VLit of Literal.t
  | VCon of Datacon.t * operand list
  | VFun of string * code * operand array * operand list * string list
      (** Site, body, captures, arguments bound so far (innermost first)
          and sites of the parameters still unbound: consecutive value
          binders form one closure ({e manifest arity}, GHC's eval/apply),
          and a partial application (a PAP) keeps the bound prefix. *)
  | VTyFun of string * env * code

and cell = Thunk of env * code * string | Value of value | Blackhole

and env = {
  captures : operand array;  (** The enclosing lambda's free variables. *)
  locals : operand list;  (** Bound since that lambda, innermost first. *)
  joins : jpoint list;  (** Join points in scope, innermost first. *)
}

and jpoint = {
  jp_code : code;  (** The right-hand side, under its parameters. *)
  mutable jp_env : env;  (** Environment at the binding (tied for rec). *)
  jp_stack : frame list;  (** Stack at the binding; a jump resumes here. *)
  jp_depth : int;  (** [List.length jp_stack]. *)
}

and frame =
  | FArg of env * arg  (** [[] e]: apply the value to argument [e]. *)
  | FTyArg  (** [[] tau]: instantiate (types are erased). *)
  | FCase of env * alts  (** [case [] of alts]. *)
  | FPrim of Primop.t * value list * env * code list
      (** Primop with evaluated prefix (reversed) and pending args. *)
  | FUpdate of cell ref * string * string
      (** Call-by-need update: cell, thunk site, cost centre to restore. *)
  | FStrict of env * code  (** Strict let: bind the value, run the body. *)

and config = {
  mode : mode;
  stats : stats;
  mutable fuel : int;
  prof : Profile.t option;
}

(* [code cfg site env stack depth] takes a node's transition under cost
   centre [site]; [depth] is [List.length stack]. An [arg] builds an
   operand, charging any allocation to the given site. [alts] selects
   and runs an alternative for the scrutinee's value. *)
and code = config -> string -> env -> frame list -> int -> value
and arg = config -> string -> env -> operand
and alts = config -> string -> env -> value -> frame list -> int -> value

exception Stuck of string
exception Out_of_fuel

let stuck fmt = Fmt.kstr (fun m -> raise (Stuck m)) fmt

(* Profiler hooks: no-ops when no profile is attached. *)
let p_enter c l = match c.prof with Some p -> Profile.enter p l | None -> ()
let p_jump c l = match c.prof with Some p -> Profile.jump p l | None -> ()
let p_update c l = match c.prof with Some p -> Profile.update p l | None -> ()
let p_bind c l = match c.prof with Some p -> Profile.join_bind p l | None -> ()

let count cfg ~site ~kind ~words =
  cfg.stats.objects <- cfg.stats.objects + 1;
  cfg.stats.words <- cfg.stats.words + words;
  match cfg.prof with
  | Some p -> Profile.alloc p ~label:site ~kind ~words
  | None -> ()

(* A closure, a thunk or a PAP. *)
let count2 cfg ~site kind = count cfg ~site ~kind ~words:2

let tick cfg site depth =
  let s = cfg.stats in
  s.steps <- s.steps + 1;
  if depth > s.max_stack then s.max_stack <- depth;
  (match cfg.prof with Some p -> Profile.step p site | None -> ());
  cfg.fuel <- cfg.fuel - 1;
  if cfg.fuel <= 0 then raise Out_of_fuel

let push op env = { env with locals = op :: env.locals }

let push_all ops env =
  match ops with
  | [] -> env
  | _ -> { env with locals = List.rev_append ops env.locals }

(* An already-evaluated (and already-counted) value as an operand. *)
let operand_of_value = function VLit l -> Imm l | v -> Ptr (ref (Value v))

let thunk cfg site c =
  count2 cfg ~site Profile.Thunk;
  Ptr (ref c)

exception Not_cheap

(* A primop's result, or [Not_cheap] when an argument is not a literal
   or the operation is undefined on them. *)
let fold_prim op vs =
  let lit = function VLit l -> l | _ -> raise_notrace Not_cheap in
  let lits = List.map lit vs in
  match Primop.fold_lit op lits with
  | Some l -> VLit l
  | None -> (
      match Primop.fold_bool op lits with
      | Some b -> VCon (Datacon.of_bool b, [])
      | None -> raise_notrace Not_cheap)

let apply_prim op vs =
  try fold_prim op vs
  with Not_cheap -> stuck "primop %s applied to bad arguments" (Primop.name op)

(* Return a value to the topmost frame. *)
let rec ret cfg site (v : value) (stack : frame list) (depth : int) : value =
  match stack with
  | [] -> v
  | FUpdate (cell, tsite, restore) :: rest ->
      cell := Value v;
      cfg.stats.updates <- cfg.stats.updates + 1;
      p_update cfg tsite;
      ret cfg restore v rest (depth - 1)
  | FStrict (senv, body) :: rest ->
      body cfg site (push (operand_of_value v) senv) rest (depth - 1)
  | FArg _ :: _ -> (
      match v with
      | VFun (fsite, body, caps, bound, params) ->
          cfg.stats.calls <- cfg.stats.calls + 1;
          enter cfg site fsite body caps bound params stack depth
      | _ -> stuck "applying a non-function")
  | FTyArg :: rest -> (
      match v with
      | VTyFun (fsite, cenv, body) ->
          cfg.stats.calls <- cfg.stats.calls + 1;
          p_enter cfg fsite;
          body cfg fsite cenv rest (depth - 1)
      | _ -> stuck "type-applying a non-type-function")
  | FCase (cenv, alts) :: rest -> alts cfg site cenv v rest (depth - 1)
  | FPrim (op, done_, penv, pending) :: rest -> (
      let done_ = v :: done_ in
      match pending with
      | [] -> ret cfg site (apply_prim op (List.rev done_)) rest (depth - 1)
      | pe :: pending' ->
          pe cfg site penv (FPrim (op, done_, penv, pending') :: rest) depth)

(* The [beta] rule: bind as many pending arguments as the closure has
   parameters, each thunk charged to its parameter; a leftover parameter
   suffix becomes a PAP (allocated); leftover argument frames continue
   on the result. The entered function becomes the cost centre. *)
and enter cfg site fsite body caps bound params stack depth =
  match (params, stack) with
  | [], _ ->
      p_enter cfg fsite;
      body cfg fsite { captures = caps; locals = bound; joins = [] } stack depth
  | p :: params', FArg (aenv, a) :: rest ->
      enter cfg site fsite body caps (a cfg p aenv :: bound) params' rest
        (depth - 1)
  | _ :: _, _ ->
      count2 cfg ~site:fsite Profile.Pap;
      ret cfg site (VFun (fsite, body, caps, bound, params)) stack depth

(* The [look] rule. *)
let look cfg site op stack depth =
  match op with
  | Imm l -> ret cfg site (VLit l) stack depth
  | Ptr cell -> (
      match !cell with
      | Value v -> ret cfg site v stack depth
      | Blackhole -> stuck "<<loop>> (blackhole entered)"
      | Thunk (tenv, code, tsite) -> (
          p_enter cfg tsite;
          match cfg.mode with
          | By_name ->
              (* No update frame, so no restore point: the thunk's site
                 simply becomes the cost centre. *)
              code cfg tsite tenv stack depth
          | By_need ->
              cell := Blackhole;
              code cfg tsite tenv
                (FUpdate (cell, tsite, site) :: stack)
                (depth + 1)))

(* Operands of [args], left to right; a jump's pushed on [locals]. *)
let rec operands cfg site env = function
  | [] -> []
  | a :: rest ->
      let op = a cfg site env in
      op :: operands cfg site env rest

let rec bind_args cfg env locals args params =
  match (args, params) with
  | a :: args, p :: ps -> bind_args cfg env (a cfg p env :: locals) args ps
  | _ -> locals

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

type slot = Local of int | Capture of int | Unbound of Ident.t

(* The translation-time mirror of [env]: [vars] and [labels] map a
   binder to its level, the count of bindings before it since the
   enclosing lambda (a label also to its site and parameter sites). *)
type scope = {
  vars : int Ident.Map.t;
  nvars : int;
  labels : (int * string * string list) Ident.Map.t;
  nlabels : int;
  fn : lambda;
}

(* The enclosing lambda: its captures, slots in [outer], the scope at
   the lambda, grow as its body is translated. *)
and lambda = {
  outer : scope option;
  mutable caps : slot list;  (** Newest first. *)
  mutable cap_index : int Ident.Map.t;
}

let new_scope outer =
  let fn = { outer; caps = []; cap_index = Ident.Map.empty } in
  let empty = Ident.Map.empty in
  { vars = empty; nvars = 0; labels = empty; nlabels = 0; fn }

let bind sc (x : var) =
  let vars = Ident.Map.add x.v_name sc.nvars sc.vars in
  { sc with vars; nvars = sc.nvars + 1 }

let bind_all sc xs = List.fold_left bind sc xs
let sites xs = List.map (fun (x : var) -> Ident.site x.v_name) xs

(* A variable missing from the locals becomes a capture of the
   enclosing lambda, resolved in turn in the scope around it. *)
let rec resolve sc x =
  match Ident.Map.find_opt x sc.vars with
  | Some level -> Local (sc.nvars - 1 - level)
  | None -> (
      let fn = sc.fn in
      match (Ident.Map.find_opt x fn.cap_index, fn.outer) with
      | Some k, _ -> Capture k
      | None, None -> Unbound x
      | None, Some outer -> (
          match resolve outer x with
          | Unbound _ as s -> s
          | s ->
              let k = List.length fn.caps in
              fn.caps <- s :: fn.caps;
              fn.cap_index <- Ident.Map.add x k fn.cap_index;
              Capture k))

let read env = function
  | Local i -> List.nth env.locals i
  | Capture k -> env.captures.(k)
  | Unbound x -> stuck "unbound variable %a" Ident.pp x

(* Speculate "cheap" expressions (literals, variables already pointing
   at values, a bounded number of primops and lets over cheap ones), as
   GHC's ok-for-speculation spares a strict [Int] loop counter its
   thunk; the bound keeps a large deferred computation a thunk. The
   budget is spent depth-first, one unit per primop or let, and any
   failure abandons the whole speculation, so the [n]th such node in
   preorder always finds [n - 1] units spent: past [speculation_budget]
   of them the translation gives up. A speculation returns the value or
   raises [Not_cheap]. *)
let speculation_budget = 8
let no_spec (_ : env) : value = raise_notrace Not_cheap

let rec spec_args env = function
  | [] -> []
  | a :: rest ->
      let v = a env in
      v :: spec_args env rest

let rec spec sc used e : env -> value =
  (match e with Prim _ | Let ((NonRec _ | Strict _), _) -> incr used | _ -> ());
  if !used > speculation_budget then no_spec
  else
    match e with
    | Lit l ->
        let v = VLit l in
        fun _ -> v
    | Var v -> (
        match resolve sc v.v_name with
        | Unbound _ -> no_spec
        | slot -> (
            fun env ->
              match read env slot with
              | Imm l -> VLit l
              | Ptr { contents = Value v } -> v
              | Ptr _ -> raise_notrace Not_cheap))
    | Prim (op, args) ->
        let args = List.map (spec sc used) args in
        fun env -> fold_prim op (spec_args env args)
    | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
        (* Look through cheap bindings (e.g. demand-analysis wrappers)
           so they do not defeat speculation. *)
        let rhs = spec sc used rhs in
        let body = spec (bind sc x) used body in
        fun env -> body (push (operand_of_value (rhs env)) env)
    | TyApp (f, _) -> spec sc used f
    | _ -> no_spec

(* The [push], [beta], [bind], [look], [case] and [jump] transitions, one
   case per node; each code ticks once and ends in a tail call. *)
let rec tr sc (e : expr) : code =
  match e with
  | Lit l ->
      let v = VLit l in
      fun cfg site _ stack depth ->
        tick cfg site depth;
        ret cfg site v stack depth
  | Var v ->
      let slot = resolve sc v.v_name in
      fun cfg site env stack depth ->
        tick cfg site depth;
        look cfg site (read env slot) stack depth
  | Con _ | Lam _ | TyLam _ ->
      let w = build sc e in
      fun cfg site env stack depth ->
        tick cfg site depth;
        ret cfg site (w cfg site env) stack depth
  | Prim (op, args) -> prim sc (spec sc (ref 0) e) op args
  | App (f, a) ->
      let f = tr sc f and a = arg sc a in
      fun cfg site env stack depth ->
        tick cfg site depth;
        f cfg site env (FArg (env, a) :: stack) (depth + 1)
  | TyApp (f, _) ->
      let f = tr sc f in
      fun cfg site env stack depth ->
        tick cfg site depth;
        f cfg site env (FTyArg :: stack) (depth + 1)
  | Let (Strict (x, rhs), body) when not (is_whnf rhs) -> (
      (* Evaluate the right-hand side to WHNF first; an unboxed result
         binds with no allocation. *)
      let cheap = spec sc (ref 0) rhs in
      let rhs = shared sc cheap rhs and body = tr (bind sc x) body in
      fun cfg site env stack depth ->
        tick cfg site depth;
        match cheap env with
        | v -> body cfg site (push (operand_of_value v) env) stack depth
        | exception Not_cheap ->
            rhs cfg site env (FStrict (env, body) :: stack) (depth + 1))
  | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
      (* [arg] speculates cheap right-hand sides without allocating;
         anything else becomes a thunk. *)
      let rhs = arg sc rhs and xsite = Ident.site x.v_name in
      let body = tr (bind sc x) body in
      fun cfg site env stack depth ->
        tick cfg site depth;
        body cfg site (push (rhs cfg xsite env) env) stack depth
  | Let (Rec pairs, body) ->
      let sc = bind_all sc (List.map fst pairs) in
      (* Each object is counted as its cell, allocated first so that the
         closures can see each other. *)
      let fill ((x : var), rhs) =
        let xsite = Ident.site x.v_name in
        if is_whnf rhs then
          let b = build ~counted:false sc rhs in
          (xsite, fun cfg env -> Value (b cfg xsite env))
        else
          let code = tr sc rhs in
          (xsite, fun _ env -> Thunk (env, code, xsite))
      in
      let rhss = List.map fill pairs and body = tr sc body in
      fun cfg site env stack depth ->
        tick cfg site depth;
        let cell (xsite, _) =
          count2 cfg ~site:xsite Profile.Closure;
          ref Blackhole
        in
        let cells = List.map cell rhss in
        let env = List.fold_left (fun env c -> push (Ptr c) env) env cells in
        List.iter2 (fun (_, fill) c -> c := fill cfg env) rhss cells;
        body cfg site env stack depth
  | Case (scrut, alts) ->
      let scrut = tr sc scrut and alts = select sc alts in
      fun cfg site env stack depth ->
        tick cfg site depth;
        scrut cfg site env (FCase (env, alts) :: stack) (depth + 1)
  | Join (jb, body) ->
      let ds = join_defns jb in
      let label sc d =
        let info = (sc.nlabels, Ident.site d.j_var.v_name, sites d.j_params) in
        let labels = Ident.Map.add d.j_var.v_name info sc.labels in
        { sc with labels; nlabels = sc.nlabels + 1 }
      in
      let body_sc = List.fold_left label sc ds in
      let is_rec = match jb with JRec _ -> true | JNonRec _ -> false in
      (* Recursive join points see their siblings. *)
      let rhs_sc = if is_rec then body_sc else sc in
      let rhs d =
        (Ident.site d.j_var.v_name, tr (bind_all rhs_sc d.j_params) d.j_rhs)
      in
      let rhss = List.map rhs ds and body = tr body_sc body in
      fun cfg site env stack depth ->
        tick cfg site depth;
        cfg.stats.joins_entered <- cfg.stats.joins_entered + 1;
        let jpoint (jsite, code) =
          p_bind cfg jsite;
          { jp_code = code; jp_env = env; jp_stack = stack; jp_depth = depth }
        in
        let jps = List.map jpoint rhss in
        let env = { env with joins = List.rev_append jps env.joins } in
        (* Tie the knot. *)
        if is_rec then List.iter (fun jp -> jp.jp_env <- env) jps;
        body cfg site env stack depth
  | Jump (j, _, args, _) -> (
      match Ident.Map.find_opt j.v_name sc.labels with
      | None ->
          fun cfg site _ _ depth ->
            tick cfg site depth;
            stuck "jump to unbound label %a" Ident.pp j.v_name
      | Some (level, jsite, params) ->
          let i = sc.nlabels - 1 - level in
          let arity_ok = List.compare_lengths params args = 0 in
          (* Arguments are prepared in the current environment, each
             thunk attributed to the parameter it is bound to... *)
          let args = List.map (arg sc) args in
          fun cfg site env _ depth ->
            tick cfg site depth;
            let jp = List.nth env.joins i in
            cfg.stats.jumps <- cfg.stats.jumps + 1;
            p_jump cfg jsite;
            if not arity_ok then
              stuck "jump to %a: wrong arity" Ident.pp j.v_name;
            let locals = bind_args cfg env jp.jp_env.locals args params in
            (* ...then the stack is truncated to the binding's: this is
               the [jump] rule popping [s']. No allocation. Steps in the
               right-hand side are charged to the join point. *)
            jp.jp_code cfg jsite { jp.jp_env with locals } jp.jp_stack
              jp.jp_depth)

(* Turn an argument expression into an operand, allocating a thunk when
   it is neither trivial nor cheaply evaluable. *)
and arg sc e : arg =
  match e with
  | Lit l ->
      let op = Imm l in
      fun _ _ _ -> op
  | Var v ->
      let slot = resolve sc v.v_name in
      fun _ _ env -> read env slot
  | Con _ | Lam _ | TyLam _ ->
      (* A WHNF argument is built directly: no thunk around it. *)
      let w = build sc e in
      fun cfg site env -> Ptr (ref (Value (w cfg site env)))
  | Prim _ | TyApp _ | Let ((NonRec _ | Strict _), _) -> (
      let cheap = spec sc (ref 0) e in
      let code = shared sc cheap e in
      fun cfg site env ->
        match cheap env with
        | VLit l -> Imm l
        (* Nullary constructors are static: no allocation. *)
        | VCon (_, []) as v -> Ptr (ref (Value v))
        | v -> thunk cfg site (Value v)
        | exception Not_cheap -> thunk cfg site (Thunk (env, code, site)))
  | _ ->
      let code = tr sc e in
      fun cfg site env -> thunk cfg site (Thunk (env, code, site))

(* A primop speculates first; failing that, it evaluates its arguments
   in turn on [FPrim] frames. *)
and prim sc cheap op args : code =
  let args = List.map (tr sc) args in
  fun cfg site env stack depth ->
    tick cfg site depth;
    match cheap env with
    | v -> ret cfg site v stack depth
    | exception Not_cheap -> (
        match args with
        | a :: rest ->
            a cfg site env (FPrim (op, [], env, rest) :: stack) (depth + 1)
        | [] -> ret cfg site (apply_prim op []) stack depth)

(* The code of [e], whose speculation is [cheap]: a primop's code shares
   it, as its step speculates first. *)
and shared sc cheap e =
  match e with Prim (op, args) -> prim sc cheap op args | _ -> tr sc e

(* A WHNF, built directly and counted unless it is a recursive
   binding's object, counted as its cell. *)
and build ?(counted = true) sc e : config -> string -> env -> value =
  match e with
  | Lit l ->
      let v = VLit l in
      fun _ _ _ -> v
  | Con (dc, _, []) ->
      let v = VCon (dc, []) in
      fun _ _ _ -> v
  | Con (dc, _, args) ->
      let args = List.map (arg sc) args and words = 1 + List.length args in
      fun cfg site env ->
        let ops = operands cfg site env args in
        if counted then count cfg ~site ~kind:Profile.Con ~words;
        VCon (dc, ops)
  | Lam _ ->
      (* Collect the manifest arity: one closure for the whole chain. *)
      let rec collect acc = function
        | Lam (x, b) -> collect (x :: acc) b
        | b -> (List.rev acc, b)
      in
      let params, body = collect [] e in
      let body_sc = bind_all (new_scope (Some sc)) params in
      let body = tr body_sc body and params = sites params in
      let slots = Array.of_list (List.rev body_sc.fn.caps) in
      fun cfg site env ->
        if counted then count2 cfg ~site Profile.Closure;
        VFun (site, body, Array.map (read env) slots, [], params)
  | TyLam (_, b) ->
      let b = tr sc b in
      fun cfg site env ->
        if counted then count2 cfg ~site Profile.Closure;
        VTyFun (site, env, b)
  | _ -> invalid_arg "Eval.build: not a WHNF"

(* The [case] rule: the first alternative matching the constructor or
   literal, else the first default. A function is already WHNF: casing
   it is a seq, matched only by a default, as in the block machine's
   [PAny] and the simplifier's case-elim. *)
and select sc alts : alts =
  let alt { alt_pat; alt_rhs } =
    (alt_pat, tr (bind_all sc (pat_binders alt_pat)) alt_rhs)
  in
  let alts = List.map alt alts in
  let default =
    List.find_map (function PDefault, c -> Some c | _ -> None) alts
  in
  fun cfg site env v stack depth -> pick default cfg site env v stack depth alts

and pick default cfg site env v stack depth = function
  | (p, c) :: rest -> (
      match (p, v) with
      | PCon (d, _), VCon (dc, ops) when Datacon.equal d dc ->
          c cfg site (push_all ops env) stack depth
      | PLit l, VLit l' when Literal.equal l l' -> c cfg site env stack depth
      | _ -> pick default cfg site env v stack depth rest)
  | [] -> (
      match default with
      | Some c -> c cfg site env stack depth
      | None -> stuck "no matching case alternative")

let run_code ~mode ~fuel ?profile code env : value * stats =
  let cfg = { mode; stats = Mstats.create (); fuel; prof = profile } in
  let v = code cfg Profile.main_site env [] 0 in
  (v, cfg.stats)

(* A machine run is a root span (cat ["eval"]) annotated with its
   counts, published into the innermost metrics registry. *)
let observed run : value * stats =
  let (v, stats), dur =
    Span.with_span_timed ~cat:"eval" "eval" (fun () ->
        let v, stats = run () in
        Span.annotate "steps" (Telemetry.Json.Int stats.steps);
        Span.annotate "words" (Telemetry.Json.Int stats.words);
        Span.annotate "jumps" (Telemetry.Json.Int stats.jumps);
        (v, stats))
  in
  Metrics.observe "eval.ms" dur;
  Metrics.observe "eval.steps" (float_of_int stats.steps);
  Metrics.observe "eval.words" (float_of_int stats.words);
  (v, stats)

let eval ?(mode = By_need) ?(fuel = max_int) ?profile e : value * stats =
  let env = { captures = [||]; locals = []; joins = [] } in
  observed (fun () -> run_code ~mode ~fuel ?profile (tr (new_scope None) e) env)

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

type tree = TLit of Literal.t | TCon of string * tree list | TFun

let rec force_deep ?(depth = 1_000_000) ?(fuel = max_int) (v : value) : tree =
  match v with
  | _ when depth <= 0 -> TFun
  | VLit l -> TLit l
  | VFun _ | VTyFun _ -> TFun
  | VCon (dc, ops) ->
      let field = function Imm l -> VLit l | Ptr c -> observe_cell ~fuel c in
      let force op = force_deep ~depth:(depth - 1) ~fuel (field op) in
      TCon (dc.name, List.map force ops)

and observe_cell ~fuel (cell : cell ref) : value =
  match !cell with
  | Value v -> v
  | Blackhole -> stuck "<<loop>> (blackhole entered during observation)"
  | Thunk (tenv, code, _) ->
      let v, _ = observed (fun () -> run_code ~mode:By_need ~fuel code tenv) in
      cell := Value v;
      v

let rec equal_tree a b =
  match (a, b) with
  | TLit l, TLit l' -> Literal.equal l l'
  | TCon (c, xs), TCon (c', ys) ->
      String.equal c c'
      && List.length xs = List.length ys
      && List.for_all2 equal_tree xs ys
  | TFun, TFun -> true
  | _ -> false

(* Where do two trees first disagree? A path like "root.1.0" plus a
   one-line description of the disagreement — [None] when equal. *)
let tree_mismatch a b =
  let describe = function
    | TLit l -> Fmt.str "%a" Literal.pp l
    | TCon (c, args) -> Fmt.str "%s/%d" c (List.length args)
    | TFun -> "<fun>"
  in
  let rec go path a b =
    match (a, b) with
    | TLit l, TLit l' when Literal.equal l l' -> None
    | TFun, TFun -> None
    | TCon (c, xs), TCon (c', ys)
      when String.equal c c' && List.length xs = List.length ys ->
        let rec first i = function
          | [], [] -> None
          | x :: xs, y :: ys -> (
              match go (Fmt.str "%s.%d" path i) x y with
              | Some _ as m -> m
              | None -> first (i + 1) (xs, ys))
          | _ -> assert false
        in
        first 0 (xs, ys)
    | _ -> Some (Fmt.str "at %s: %s vs %s" path (describe a) (describe b))
  in
  go "root" a b

let rec pp_tree ppf = function
  | TLit l -> Literal.pp ppf l
  | TFun -> Fmt.string ppf "<fun>"
  | TCon (c, []) -> Fmt.string ppf c
  | TCon (c, args) ->
      Fmt.pf ppf "(%s%a)" c
        Fmt.(list ~sep:nop (fun ppf t -> Fmt.pf ppf " %a" pp_tree t))
        args

(* The statistics and profile leave out the observation's forcing. *)
let run_deep ?(mode = By_need) ?(fuel = max_int) ?profile e : tree * stats =
  let v, stats = eval ~mode ~fuel ?profile e in
  (force_deep ~fuel v, stats)

type outcome = Finished of tree * stats | Fuel_exhausted | Crashed of string

let run_outcome ?mode ?(fuel = max_int) ?profile e : outcome =
  match run_deep ?mode ~fuel ?profile e with
  | t, s -> Finished (t, s)
  | exception Out_of_fuel -> Fuel_exhausted
  | exception Stuck m -> Crashed m
