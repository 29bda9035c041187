(** An executor for the block IR, with instruction and allocation
    counters.

    The operational costs match the story the paper tells about
    compiled code:

    - [Goto] (a lowered {e jump}) costs one instruction and {b zero
      allocation} — it binds the block parameters and transfers
      control;
    - [Apply]/[TailApply] (lowered {e calls}) go through closures,
      which had to be allocated; non-tail calls additionally push a
      frame on the call stack;
    - constructors and closures allocate [1 + n] words ([n] fields;
      nullary constructors are static and free).

    The machine uses eval/apply for over- and under-saturated calls
    (partial applications allocate a PAP).

    Statistics use the machine-neutral {!Fj_core.Mstats} shape shared
    with {!Fj_core.Eval}, field by field: [steps] are instructions,
    [jumps] are gotos, [joins_entered] counts [LetBlock]s evaluated,
    and [updates] stays 0 (the machine is call-by-value). [?profile]
    attaches the same per-site {!Fj_core.Profile} the Fig. 3 machine
    fills: allocations are attributed to the binder that performed
    them, gotos to the block label (a lowered join point — zero
    words), steps to the most recently entered code or block. *)

open Blockir
module Literal = Fj_core.Literal
module Primop = Fj_core.Primop
module Profile = Fj_core.Profile

type stats = Fj_core.Mstats.t = {
  mutable steps : int;
  mutable objects : int;
  mutable words : int;
  mutable jumps : int;
  mutable joins_entered : int;
  mutable calls : int;
  mutable updates : int;
  mutable max_stack : int;
}

let fresh_stats = Fj_core.Mstats.create
let pp_stats = Fj_core.Mstats.pp

type value =
  | VLit of Literal.t
  | VCon of string * int * value array
  | VClos of clos
  | VPap of clos * value list

and clos = {
  clos_code : code;
  clos_env : value array;  (** Mutable for recursive closure patching. *)
}

and blockdef = {
  b_params : Ident.t list;
  b_body : block_expr;
  mutable b_env : env;
}

and env = { vars : value Ident.Map.t; blocks : blockdef Ident.Map.t }

exception Stuck of string
exception Out_of_fuel

let stuck fmt = Fmt.kstr (fun m -> raise (Stuck m)) fmt

let empty_env = { vars = Ident.Map.empty; blocks = Ident.Map.empty }
let v_true = VCon ("True", 1, [||])
let v_false = VCon ("False", 0, [||])

type frame = { fr_var : Ident.t; fr_cont : block_expr; fr_env : env }

(** Run a program. [fuel] bounds the instruction count; [profile]
    attaches a per-site profiler. *)
let run_machine ?(fuel = max_int) ?profile (p : program) : value * stats =
  let stats = fresh_stats () in
  let p_alloc ~label ~kind words =
    match profile with
    | Some pr -> Profile.alloc pr ~label ~kind ~words
    | None -> ()
  in
  (* [label] is the binder (site) the allocation is attributed to. *)
  let alloc ~label ~kind words =
    if words > 0 then begin
      stats.objects <- stats.objects + 1;
      stats.words <- stats.words + words;
      p_alloc ~label ~kind words
    end
  in
  let lookup env x =
    match Ident.Map.find_opt x env.vars with
    | Some v -> v
    | None -> stuck "unbound machine variable %a" Ident.pp x
  in
  let atom env = function
    | ALit l -> VLit l
    | AVar x -> lookup env x
  in
  let bind env x v = { env with vars = Ident.Map.add x v env.vars } in
  let rec lits env op = function
    | [] -> []
    | a :: rest -> (
        match atom env a with
        | VLit l -> l :: lits env op rest
        | _ -> stuck "primop %s applied to non-literal" (Primop.name op))
  in
  let eval_rhs ~label env = function
    | RAtom a -> atom env a
    | RPrim (op, args) -> (
        match Primop.fold op (lits env op args) with
        | Primop.Lit l -> VLit l
        | Bool b -> if b then v_true else v_false
        | Stuck -> stuck "primop %s is stuck" (Primop.name op))
    | RAllocCon (c, tag, fields) ->
        let vs = Array.of_list (List.map (atom env) fields) in
        if Array.length vs > 0 then
          alloc ~label ~kind:Profile.Con (1 + Array.length vs);
        VCon (c, tag, vs)
    | RAllocClos (code_name, caps) -> (
        match Ident.Map.find_opt code_name p.codes with
        | None -> stuck "unknown code %a" Ident.pp code_name
        | Some code ->
            let envv = Array.of_list (List.map (atom env) caps) in
            alloc ~label ~kind:Profile.Closure (1 + Array.length envv);
            VClos { clos_code = code; clos_env = envv })
    | RProj (a, i) -> (
        match atom env a with
        | VCon (_, _, fields) when i < Array.length fields -> fields.(i)
        | _ -> stuck "bad projection")
  in
  (* Enter a closure's code with exactly the right number of args. *)
  let enter (c : clos) (args : value list) : env * block_expr =
    let code = c.clos_code in
    let env =
      List.fold_left2 bind
        (List.fold_left2 bind empty_env code.captures
           (Array.to_list c.clos_env))
        code.params args
    in
    (env, code.body)
  in
  let fuel = ref fuel in
  (* [site] is the current cost centre (the code or block most recently
     entered); [depth] tracks the frame-stack length incrementally. *)
  let rec exec site env (e : block_expr) (stack : frame list) (depth : int) :
      value =
    stats.steps <- stats.steps + 1;
    (match profile with Some pr -> Profile.step pr site | None -> ());
    decr fuel;
    if !fuel <= 0 then raise Out_of_fuel;
    if depth > stats.max_stack then stats.max_stack <- depth;
    match e with
    | Let (x, r, k) ->
        exec site
          (bind env x (eval_rhs ~label:(Ident.site x) env r))
          k stack depth
    | LetRecClos (cs, k) ->
        (* Allocate first, then patch captures. *)
        let items =
          List.map
            (fun (x, code_name, caps) ->
              match Ident.Map.find_opt code_name p.codes with
              | None -> stuck "unknown code %a" Ident.pp code_name
              | Some code ->
                  let envv =
                    Array.make (List.length code.captures)
                      (VLit (Literal.Int 0))
                  in
                  alloc ~label:(Ident.site x) ~kind:Profile.Closure
                    (1 + Array.length envv);
                  (x, code, caps, envv))
            cs
        in
        let env' =
          List.fold_left
            (fun env (x, code, _, envv) ->
              bind env x (VClos { clos_code = code; clos_env = envv }))
            env items
        in
        List.iter
          (fun (_, _, caps, envv) ->
            List.iteri (fun i a -> envv.(i) <- atom env' a) caps)
          items;
        exec site env' k stack depth
    | LetBlock (recursive, blocks, k) ->
        stats.joins_entered <- stats.joins_entered + 1;
        let defs =
          List.map
            (fun (l, ps, b) ->
              (match profile with
              | Some pr -> Profile.join_bind pr (Ident.site l)
              | None -> ());
              (l, { b_params = ps; b_body = b; b_env = env }))
            blocks
        in
        let env' =
          {
            env with
            blocks =
              List.fold_left
                (fun m (l, d) -> Ident.Map.add l d m)
                env.blocks defs;
          }
        in
        if recursive then List.iter (fun (_, d) -> d.b_env <- env') defs;
        exec site env' k stack depth
    | Case (a, alts) -> (
        let v = atom env a in
        let matches (pat, _) =
          match (pat, v) with
          | PTag (c, _), VCon (c', _, _) -> String.equal c c'
          | PLit l, VLit l' -> Literal.equal l l'
          | PAny, _ -> true
          | _ -> false
        in
        match List.find_opt matches alts with
        | None -> stuck "no matching machine case alternative"
        | Some (pat, body) ->
            let env' =
              match (pat, v) with
              | PTag (_, xs), VCon (_, _, fields) ->
                  List.fold_left2 bind env xs (Array.to_list fields)
              | _ -> env
            in
            exec site env' body stack depth)
    | Goto (l, args) -> (
        stats.jumps <- stats.jumps + 1;
        match Ident.Map.find_opt l env.blocks with
        | None -> stuck "goto to unknown block %a" Ident.pp l
        | Some d ->
            let lsite = Ident.site l in
            (match profile with
            | Some pr -> Profile.jump pr lsite
            | None -> ());
            let vals = List.map (atom env) args in
            let env' = List.fold_left2 bind d.b_env d.b_params vals in
            (* The block (a lowered join point) becomes the cost
               centre: its steps show up against a zero-word site. *)
            exec lsite env' d.b_body stack depth)
    | Return a -> ret site (atom env a) stack depth
    | TailApply (f, args) ->
        stats.calls <- stats.calls + 1;
        apply site (atom env f) (List.map (atom env) args) stack depth
    | Apply (x, f, args, k) ->
        stats.calls <- stats.calls + 1;
        apply site (atom env f)
          (List.map (atom env) args)
          ({ fr_var = x; fr_cont = k; fr_env = env } :: stack)
          (depth + 1)
  and ret site v stack depth =
    match stack with
    | [] -> v
    | fr :: rest ->
        exec site (bind fr.fr_env fr.fr_var v) fr.fr_cont rest (depth - 1)
  and apply site f args stack depth =
    match f with
    | VClos c ->
        let arity = List.length c.clos_code.params in
        let n = List.length args in
        if n = arity then begin
          let env, body = enter c args in
          let csite = Ident.site c.clos_code.code_name in
          (match profile with
          | Some pr -> Profile.enter pr csite
          | None -> ());
          exec csite env body stack depth
        end
        else if n < arity then begin
          alloc ~label:(Ident.site c.clos_code.code_name) ~kind:Profile.Pap
            (1 + n);
          ret site (VPap (c, args)) stack depth
        end
        else begin
          (* Over-saturated: call with [arity] args, then apply the
             result to the remainder. *)
          let now = List.filteri (fun i _ -> i < arity) args in
          let later = List.filteri (fun i _ -> i >= arity) args in
          let env', body = enter c now in
          let csite = Ident.site c.clos_code.code_name in
          (match profile with
          | Some pr -> Profile.enter pr csite
          | None -> ());
          let x = Ident.fresh "over" in
          let later_ids = List.map (fun _ -> Ident.fresh "a") later in
          let fenv = List.fold_left2 bind empty_env later_ids later in
          exec csite env' body
            ({
               fr_var = x;
               fr_cont =
                 TailApply (AVar x, List.map (fun y -> AVar y) later_ids);
               fr_env = fenv;
             }
            :: stack)
            (depth + 1)
        end
    | VPap (c, prev) -> apply site (VClos c) (prev @ args) stack depth
    | _ -> stuck "applying a non-function value"
  in
  let v = exec Profile.main_site empty_env p.main [] 0 in
  (v, stats)

(* The public entry point: one root span (cat ["machine"]) per block
   machine run, annotated with its step/jump/word counts, publishing
   into the innermost metrics registry — no-ops when no observability
   collector/registry is installed. *)
let run ?fuel ?profile (p : program) : value * stats =
  let open Fj_core in
  let (v, stats), dur =
    Span.with_span_timed ~cat:"machine" "bmachine" (fun () ->
        let (v, stats) = run_machine ?fuel ?profile p in
        Span.annotate "steps" (Telemetry.Json.Int stats.Mstats.steps);
        Span.annotate "jumps" (Telemetry.Json.Int stats.Mstats.jumps);
        Span.annotate "words" (Telemetry.Json.Int stats.Mstats.words);
        (v, stats))
  in
  Metrics.observe "bmachine.ms" dur;
  Metrics.observe "bmachine.steps" (float_of_int stats.Mstats.steps);
  Metrics.observe "bmachine.words" (float_of_int stats.Mstats.words);
  (v, stats)

(* ------------------------------------------------------------------ *)
(* Observation (mirrors {!Fj_core.Eval.tree})                          *)
(* ------------------------------------------------------------------ *)

let rec tree_of_value (v : value) : Fj_core.Eval.tree =
  match v with
  | VLit l -> Fj_core.Eval.TLit l
  | VCon (c, _, fields) ->
      Fj_core.Eval.TCon
        (c, List.map tree_of_value (Array.to_list fields))
  | VClos _ | VPap _ -> Fj_core.Eval.TFun
