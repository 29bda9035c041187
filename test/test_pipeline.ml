(** Tests for {!Fj_core.Pipeline}: configuration behaviour, reports,
    the forensic Lint mode, and the expected allocation ordering across
    compiler configurations. *)

open Fj_core
open Util
module B = Builder

let compile src = Fj_surface.Prelude.compile src

let words mode ?(strictness = true) ?(cse = true) ?(spec_constr = true) src =
  let denv, core = compile src in
  let cfg =
    Pipeline.default_config ~mode ~datacons:denv ~inline_threshold:300
      ~strictness ~cse ~spec_constr ()
  in
  let e = Pipeline.run cfg core in
  let _ = lints ~env:denv e in
  same_result core e;
  (snd (run e)).Eval.words

let fusion_src =
  {|
def main =
  let rec go i acc =
    if i > 300 then acc
    else if odd i then go (i + 1) (acc + i * 3)
    else go (i + 1) acc
  in go 1 0
|}

let ordering () =
  (* join-points <= baseline <= no-cc on a loop-heavy program. *)
  let j = words Pipeline.Join_points fusion_src in
  let b = words Pipeline.Baseline fusion_src in
  let n = words Pipeline.No_cc fusion_src in
  Alcotest.(check bool)
    (Fmt.str "join (%d) <= baseline (%d)" j b)
    true (j <= b);
  Alcotest.(check bool)
    (Fmt.str "baseline (%d) <= no-cc (%d)" b n)
    true (b <= n);
  Alcotest.(check int) "join points allocate nothing here" 0 j

let report_trail () =
  let denv, core = compile "def main = sum (enumFromTo 1 10)" in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv ()
  in
  let _, report = Pipeline.run_report cfg core in
  let passes = List.map fst (Pipeline.trail report) in
  let has prefix =
    List.exists
      (fun p -> String.length p >= String.length prefix
                && String.sub p 0 (String.length prefix) = prefix)
      passes
  in
  Alcotest.(check bool) "ran float-in" true (has "float-in");
  Alcotest.(check bool) "ran contify" true (has "contify");
  Alcotest.(check bool) "ran demand" true (has "demand");
  Alcotest.(check bool) "ran simplify" true (has "simplify");
  Alcotest.(check bool) "ran float-out" true (has "float-out");
  Alcotest.(check bool) "contified something" true
    (Pipeline.contified report > 0)

let baseline_skips_contify () =
  let denv, core = compile "def main = sum (enumFromTo 1 10)" in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Baseline ~datacons:denv ()
  in
  let _, report = Pipeline.run_report cfg core in
  let passes = List.map fst (Pipeline.trail report) in
  Alcotest.(check bool) "no contify pass" false
    (List.exists
       (fun p -> String.length p >= 7 && String.sub p 0 7 = "contify")
       passes)

let recover_healthy_no_incident () =
  (* [Recover] Lints between passes and names the failing pass in an
     incident; on a healthy program it must record none (test_guard
     injects the pass bugs it catches). *)
  let denv, core = compile "def main = length [1,2,3]" in
  ignore
    (compile_clean "length [1,2,3]"
       (Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
          ~policy:Guard.Recover ())
       core)

let strictness_ablation () =
  let on = words Pipeline.Join_points ~strictness:true fusion_src in
  let off = words Pipeline.Join_points ~strictness:false fusion_src in
  Alcotest.(check bool)
    (Fmt.str "strictness only helps (%d <= %d)" on off)
    true (on <= off)

let mode_names () =
  Alcotest.(check string) "baseline" "baseline"
    (Pipeline.mode_name Pipeline.Baseline);
  Alcotest.(check string) "join-points" "join-points"
    (Pipeline.mode_name Pipeline.Join_points)

let run_all_modes_consistent () =
  let denv, core = compile "def main = product (enumFromTo 1 6)" in
  let t0, _ = run core in
  let results = Pipeline.run_all_modes ~datacons:denv core in
  Alcotest.(check int) "three configurations" 3 (List.length results);
  List.iter
    (fun (_, e) ->
      let t, _ = run e in
      Alcotest.check tree_testable "same value" t0 t)
    results

let idempotent_ish () =
  (* Optimising twice must not change meaning and must keep Lint. *)
  let denv, core = compile "def main = any even [1,3,5,6]" in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv ()
  in
  let once = Pipeline.run cfg core in
  let twice = Pipeline.run cfg once in
  let _ = lints ~env:denv twice in
  same_result once twice

let pass_cache_replays () =
  (* A warm run from the same supply position replays every pass from
     an in-memory pass cache: same tree, trail, ticks and ledger as the
     cold run, every pass but "input" marked cached, nothing stored. *)
  let denv, core = compile "def main = any even [1,3,5,6]" in
  let tbl = Hashtbl.create 64 in
  let stores = ref 0 in
  let key pass supply input = (pass, supply, Sexp.write input) in
  let cache =
    {
      Pipeline.cache_lookup =
        (fun ~pass ~supply ~input -> Hashtbl.find_opt tbl (key pass supply input));
      cache_store =
        (fun ~pass ~supply ~input cp ->
          incr stores;
          Hashtbl.replace tbl (key pass supply input) cp);
    }
  in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~policy:Guard.Recover ~cache ()
  in
  let supply = Ident.counter_value () in
  let cold, rc = Pipeline.run_report cfg core in
  let cold_stores = !stores in
  Ident.restore_counter supply;
  let warm, rw = Pipeline.run_report cfg core in
  Alcotest.(check string) "same tree" (Sexp.write cold) (Sexp.write warm);
  Alcotest.(check (list (pair string int)))
    "same trail" (Pipeline.trail rc) (Pipeline.trail rw);
  Alcotest.(check (list (pair string int)))
    "same ticks" (Pipeline.ticks rc) (Pipeline.ticks rw);
  Alcotest.(check int) "same ledger"
    (List.length (Pipeline.decisions rc))
    (List.length (Pipeline.decisions rw));
  Alcotest.(check int) "warm run stores nothing" cold_stores !stores;
  List.iter
    (fun (p : Pipeline.pass_record) ->
      Alcotest.(check bool) p.Pipeline.pass (p.Pipeline.pass <> "input")
        p.Pipeline.cached)
    (Pipeline.passes rw)

(* User rewrite RULES fire through the pipeline (GHC-style: the rule
   meets its redex only after inlining exposes it). *)
let rules_through_pipeline () =
  let denv, core =
    compile
      {|
def toUp x = x + 1000
def toDown x = x - 1000
def main = toUp (toDown 7) + toUp (toDown 35)
|}
  in
  (* forall x. toUp (toDown x) = x — like stream/unstream. The rule's
     head variables must be the elaborated binders: fetch them from the
     linked core (they are the let binders named toUp/toDown). *)
  let rec find_binder name e =
    match e with
    | Syntax.Let (Syntax.NonRec (v, _), body) ->
        if Ident.name v.Syntax.v_name = name then Some v
        else find_binder name body
    | Syntax.Let (_, body) -> find_binder name body
    | _ -> None
  in
  let up = Option.get (find_binder "toUp" core) in
  let down = Option.get (find_binder "toDown" core) in
  let hole = Syntax.mk_var "x" Types.int in
  (* The elaborated calls go through the generalized binders: toUp has
     no quantifiers here (monomorphic Int -> Int), so spines are plain
     applications. *)
  let rule =
    Rules.rule ~name:"up/down" ~term_holes:[ hole ] ~ty_holes:[]
      ~lhs:(Syntax.App (Syntax.Var up, Syntax.App (Syntax.Var down, Syntax.Var hole)))
      ~rhs:(Syntax.Var hole)
  in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~rules:[ rule ] ()
  in
  let e, report = Pipeline.run_report cfg core in
  let _ = lints ~env:denv e in
  same_result core e;
  let fired =
    List.exists
      (fun (p, _) -> String.length p >= 5 && String.sub p 0 5 = "rules")
      (Pipeline.trail report)
  in
  Alcotest.(check bool) "rule fired in the pipeline" true fired

(* [let x1 = 1 * 1 in ... let xn = n * n in x1 + (x2 + ... + xn)]:
   every binder used once, in the body. *)
let let_chain n =
  let open Syntax in
  let xs = List.init n (fun i -> (i, mk_var "x" Types.int)) in
  let body =
    List.fold_right (fun (_, x) acc -> B.add (Var x) acc) xs (B.int 0)
  in
  List.fold_right
    (fun (i, x) acc -> Let (NonRec (x, B.mul (B.int i) (B.int i)), acc))
    xs body

let minor_words pass e =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (pass e));
  Gc.minor_words () -. before

(* Per-binder questions cost what they answer: doubling a chain of
   lets must not quadruple what Float In, contify, CSE, the
   simplifier's binder census, Lint, cleanup or the simplifier
   allocate, as it did while each [let] rebuilt a free-variable set,
   an occurrence map or a printout of its whole scope. *)
let passes_allocate_linearly () =
  let n = 200 in
  let small = let_chain n and large = let_chain (2 * n) in
  let run f e = ignore (Sys.opaque_identity (f e)) in
  List.iter
    (fun (name, pass) ->
      let w = minor_words pass small and w2 = minor_words pass large in
      if w2 > 2.5 *. w then
        Alcotest.failf "%s: %.0f minor words for %d lets, %.0f for %d (%.1fx)"
          name w n w2 (2 * n) (w2 /. w))
    [
      ("float-in", run Float_in.run);
      ("contify", run Contify.contify);
      ("cse", run Cse.run);
      ("census", run Occur.census);
      ("lint", run (Lint.lint_result dc));
      ("cleanup", run Cleanup.cleanup);
      ("simplify", run (Simplify.simplify (Simplify.default_config ())));
    ]

(* Cleanup runs after every simplifier iteration; where it finds
   nothing to drop or inline it returns the tree itself, copying
   nothing. *)
let cleanup_shares_unchanged () =
  let e = let_chain 50 in
  let e', changed = Cleanup.cleanup e in
  Alcotest.(check bool) "unchanged" false changed;
  Alcotest.(check bool) "the same tree" true (e' == e)

(* The sharing rule Guard's skipped re-check rests on: each of the seven
   passes returns its input itself exactly when its output equals it,
   on every pass input of the corpus, the examples and Gen seeds under
   all three modes (each program built under the supply its compile
   uses). Each pass must meet both cases. *)
let passes_share_exactly_when_unchanged () =
  let passes =
    [
      ("float-in", Float_in.run);
      ("contify", Contify.contify);
      ("spec-constr", Spec_constr.run);
      ("demand", Demand.strictify);
      ("cse", Cse.run);
      ("float-out", Float_out.run);
      ("simplify", Simplify.simplify (Simplify.default_config ()));
    ]
  in
  let shared = Hashtbl.create 8 and changed = Hashtbl.create 8 in
  let count tbl name = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
  let bump tbl name = Hashtbl.replace tbl name (count tbl name + 1) in
  let check what e =
    List.iter
      (fun (name, pass) ->
        let e' = pass e in
        (* The tree is immutable, so only this half can fail. *)
        if e' != e && Syntax.compare_expr e' e = 0 then
          Alcotest.failf "%s: %s copied its unchanged input" what name;
        bump (if e' == e then shared else changed) name)
      passes
  in
  every_pass_input check;
  List.iter
    (fun (name, _) ->
      if count shared name = 0 || count changed name = 0 then
        Alcotest.failf "%s: %d inputs returned, %d changed" name
          (count shared name) (count changed name))
    passes

(* The first term binder (λ, [let], [rec], pattern, join label or
   parameter) of [e] whose unique an earlier binder of [e] already
   has, wherever the two sit. *)
let repeated_binder e =
  let open Syntax in
  let seen = Ident.Tbl.create 64 in
  let exception Repeated of var in
  let bind (x : var) =
    if Ident.Tbl.mem seen x.v_name then raise (Repeated x);
    Ident.Tbl.add seen x.v_name ()
  in
  let rec go = function
    | Var _ | Lit _ -> ()
    | App (f, a) ->
        go f;
        go a
    | TyApp (b, _) | TyLam (_, b) -> go b
    | Con (_, _, es) | Prim (_, es) | Jump (_, _, es, _) -> List.iter go es
    | Lam (x, b) ->
        bind x;
        go b
    | Let (bind', body) ->
        List.iter
          (fun (x, rhs) ->
            bind x;
            go rhs)
          (bind_pairs bind');
        go body
    | Case (scrut, alts) ->
        go scrut;
        List.iter
          (fun a ->
            List.iter bind (pat_binders a.alt_pat);
            go a.alt_rhs)
          alts
    | Join (jb, body) ->
        List.iter
          (fun d ->
            bind d.j_var;
            List.iter bind d.j_params;
            go d.j_rhs)
          (join_defns jb);
        go body
  in
  match go e with () -> None | exception Repeated x -> Some x

(* No two term binders of one tree share a unique, on every pass input
   and every compile's output: the binder census's and Contify's cells
   are keyed by unique, and the simplifier renames a binder only when
   it meets its unique again. Stronger than the service's check of
   [.sexp] input, which looks only at the binders around each one. *)
let binders_are_unique () =
  every_pass_input ~output:true (fun what e ->
      match repeated_binder e with
      | None -> ()
      | Some x ->
          Alcotest.failf "%s: two binders share the unique of %a" what Ident.pp
            x.Syntax.v_name)

let tests =
  [
    test "allocation ordering across configurations" ordering;
    test "user RULES fire through the pipeline" rules_through_pipeline;
    test "report records the pass trail" report_trail;
    test "baseline never contifies" baseline_skips_contify;
    test "Recover: no incident when healthy" recover_healthy_no_incident;
    test "strictness ablation" strictness_ablation;
    test "mode names" mode_names;
    test "run_all_modes agree" run_all_modes_consistent;
    test "re-optimisation is stable" idempotent_ish;
    test "per-binder passes allocate linearly" passes_allocate_linearly;
    test "pass cache hits replay the pass" pass_cache_replays;
    test "cleanup shares a tree it leaves unchanged" cleanup_shares_unchanged;
    test "passes return their input exactly when unchanged"
      passes_share_exactly_when_unchanged;
    test "no two binders in a tree share a unique" binders_are_unique;
  ]
