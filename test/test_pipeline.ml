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

let lint_every_pass_catches () =
  (* The forensic mode must lint-check between passes and report the
     failing pass name (we can only check it does not fire on healthy
     programs here; pass-bug injection is covered by the fact that all
     integration tests run with it on). *)
  let denv, core = compile "def main = length [1,2,3]" in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~lint_every_pass:true ()
  in
  ignore (Pipeline.run cfg core)

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
   lets must not quadruple what Float In, contify or CSE allocate, as
   it did while each [let] rebuilt a free-variable set, an occurrence
   map or a printout of its whole scope. *)
let passes_allocate_linearly () =
  let n = 200 in
  let small = let_chain n and large = let_chain (2 * n) in
  List.iter
    (fun (name, pass) ->
      let w = minor_words pass small and w2 = minor_words pass large in
      if w2 > 2.5 *. w then
        Alcotest.failf "%s: %.0f minor words for %d lets, %.0f for %d (%.1fx)"
          name w n w2 (2 * n) (w2 /. w))
    [
      ("float-in", Float_in.run);
      ("contify", fun e -> fst (Contify.contify e));
      ("cse", Cse.run);
    ]

let tests =
  [
    test "allocation ordering across configurations" ordering;
    test "user RULES fire through the pipeline" rules_through_pipeline;
    test "report records the pass trail" report_trail;
    test "baseline never contifies" baseline_skips_contify;
    test "lint-every-pass on healthy input" lint_every_pass_catches;
    test "strictness ablation" strictness_ablation;
    test "mode names" mode_names;
    test "run_all_modes agree" run_all_modes_consistent;
    test "re-optimisation is stable" idempotent_ish;
    test "per-binder passes allocate linearly" passes_allocate_linearly;
  ]
