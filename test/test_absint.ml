(** Tests for {!Fj_core.Absint} and {!Fj_core.Diagnostic}: the
    lattice, the fixpoint engine's precision through join points, the
    discipline verifier on hand-built ill-formed trees (including
    every [Fault]-injectable corruption Lint catches), liveness
    agreement with {!Fj_core.Occur}, abstract soundness against the
    evaluator over seeded generated programs under all three pipeline
    configurations, and the committed corpus sweep with its missed-opt
    warning snapshot. *)

open Fj_core
open Util

module B = Builder

let corpus () =
  repo_files "test/corpus" ".sexp"
  |> List.map (fun (f, text) -> (f, Sexp.read dc text))

let examples () =
  repo_files "examples/programs" ".fj"
  |> List.map (fun (f, src) ->
         let denv, core = Fj_surface.Prelude.compile src in
         (f, denv, core))

(* Mirror [fjc check]'s defaults exactly so the snapshot below matches
   what the CLI reports. *)
let check_config denv =
  Pipeline.default_config ~mode:Pipeline.Join_points ~iterations:3
    ~datacons:denv ~inline_threshold:300 ~dup_threshold:12
    ~policy:Guard.Recover ()

(* ---------------- the lattice ---------------- *)

let aval = Alcotest.testable Absint.pp_aval Absint.equal_aval

let lattice_laws () =
  let vals =
    [
      Absint.Bot;
      Absint.Top;
      Absint.Fun;
      Absint.Const (Literal.Int 3);
      Absint.Const (Literal.Int 4);
      Absint.Shape ("Just", [ Absint.Const (Literal.Int 1) ]);
      Absint.Shape ("Nothing", []);
    ]
  in
  List.iter
    (fun a ->
      Alcotest.check aval "idempotent" a (Absint.join_aval a a);
      Alcotest.check aval "bot is identity" a (Absint.join_aval Absint.Bot a);
      Alcotest.check aval "top absorbs" Absint.Top
        (Absint.join_aval Absint.Top a);
      List.iter
        (fun b ->
          Alcotest.check aval "commutative" (Absint.join_aval a b)
            (Absint.join_aval b a))
        vals)
    vals;
  Alcotest.check aval "distinct constants widen" Absint.Top
    (Absint.join_aval
       (Absint.Const (Literal.Int 3))
       (Absint.Const (Literal.Int 4)));
  Alcotest.check aval "same-shape fields join"
    (Absint.Shape ("Just", [ Absint.Top ]))
    (Absint.join_aval
       (Absint.Shape ("Just", [ Absint.Const (Literal.Int 1) ]))
       (Absint.Shape ("Just", [ Absint.Const (Literal.Int 2) ])))

let concretization () =
  let t_one = Eval.TLit (Literal.Int 1) in
  Alcotest.(check bool) "top accepts" true (Absint.concretizes Absint.Top t_one);
  Alcotest.(check bool) "bot refutes" false
    (Absint.concretizes Absint.Bot t_one);
  Alcotest.(check bool) "const matches" true
    (Absint.concretizes (Absint.Const (Literal.Int 1)) t_one);
  Alcotest.(check bool) "const mismatch" false
    (Absint.concretizes (Absint.Const (Literal.Int 2)) t_one);
  Alcotest.(check bool) "fun matches" true
    (Absint.concretizes Absint.Fun Eval.TFun);
  Alcotest.(check bool) "shape matches pointwise" true
    (Absint.concretizes
       (Absint.Shape ("Just", [ Absint.Const (Literal.Int 1) ]))
       (Eval.TCon ("Just", [ t_one ])));
  Alcotest.(check bool) "shape field refutes" false
    (Absint.concretizes
       (Absint.Shape ("Just", [ Absint.Const (Literal.Int 2) ]))
       (Eval.TCon ("Just", [ t_one ])))

(* ---------------- engine precision ---------------- *)

(* join j (p : Int) = p + 1 in jump j 41 — the constant must flow
   through the jump into the join parameter and out of the rhs. *)
let const_through_jump () =
  let e =
    B.join1 "j"
      [ ("p", Types.int) ]
      (fun args -> B.add (List.hd args) (B.int 1))
      (fun jump -> jump [ B.int 41 ] Types.int)
  in
  let _ = lints e in
  let r = Absint.analyze e in
  Alcotest.check aval "constant flows through the jump"
    (Absint.Const (Literal.Int 42))
    r.Absint.r_value

let primops_fold () =
  let r = Absint.analyze (B.mul (B.int 6) (B.int 7)) in
  Alcotest.check aval "arithmetic folds" (Absint.Const (Literal.Int 42))
    r.Absint.r_value;
  let r = Absint.analyze (B.lt (B.int 1) (B.int 2)) in
  Alcotest.check aval "comparison folds to a shape"
    (Absint.Shape ("True", []))
    r.Absint.r_value

let case_feasibility () =
  (* case Just 5 of Just x -> x | Nothing -> 0: only the Just branch
     is feasible, and the field constant survives the pattern bind. *)
  let e =
    B.case
      (B.just Types.int (B.int 5))
      [
        B.alt_con "Just" [ Types.int ] [ "x" ] (fun xs -> List.hd xs);
        B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.int 0);
      ]
  in
  let _ = lints e in
  let r = Absint.analyze e in
  Alcotest.check aval "single feasible alternative"
    (Absint.Const (Literal.Int 5))
    r.Absint.r_value

let recursion_terminates () =
  (* joinrec loop (n) = if n <= 0 then 0 else jump loop (n - 1): the
     parameter cell must widen (0, 10 -> Top) and the engine stop. *)
  let e =
    B.joinrec1 "loop"
      [ ("n", Types.int) ]
      (fun jump args ->
        let n = List.hd args in
        B.if_ (B.le n (B.int 0)) (B.int 0)
          (jump [ B.sub n (B.int 1) ] Types.int))
      (fun jump -> jump [ B.int 10 ] Types.int)
  in
  let _ = lints e in
  let r = Absint.analyze e in
  Alcotest.(check bool)
    (Fmt.str "fixpoint in %d rounds" r.Absint.r_iterations)
    true
    (r.Absint.r_iterations < 10_000);
  Alcotest.(check bool) "result is sound" true
    (Absint.concretizes r.Absint.r_value (fst (run e)))

(* ---------------- the discipline verifier ---------------- *)

let errors_of e = List.filter Diagnostic.is_error (Absint.verify e)
let has_check c ds = List.exists (fun d -> d.Diagnostic.d_check = c) ds

let ok_join () =
  B.join1 "j"
    [ ("p", Types.int) ]
    (fun args -> List.hd args)
    (fun jump -> jump [ B.int 0 ] Types.int)

let verifier_accepts_clean () =
  Alcotest.(check int) "no errors on a clean join" 0
    (List.length (errors_of (ok_join ())));
  (* Recursive joins: self-jumps from a JRec rhs are in Δ. *)
  let e =
    B.joinrec1 "loop"
      [ ("n", Types.int) ]
      (fun jump args -> jump [ List.hd args ] Types.int)
      (fun jump -> jump [ B.int 1 ] Types.int)
  in
  Alcotest.(check int) "no errors on a recursive group" 0
    (List.length (errors_of e))

(* Hand-corrupt a clean join: the HOAS builders cannot express these,
   which is rather the point. *)
let jump_escape_under_lambda () =
  let p = Syntax.mk_var "p" Types.int in
  let j = Syntax.mk_join_var "j" [] [ p ] in
  let x = Syntax.mk_var "x" Types.int in
  let e =
    Syntax.Join
      ( Syntax.JNonRec
          { j_var = j; j_tyvars = []; j_params = [ p ]; j_rhs = Syntax.Var p },
        Syntax.Lam
          (x, Syntax.Jump (j, [], [ Syntax.Lit (Literal.Int 0) ], Types.int))
      )
  in
  fails_lint e;
  let ds = errors_of e in
  Alcotest.(check bool) "jump-escape reported" true (has_check "jump-escape" ds);
  (* The sharper-than-Lint part: the message names the Δ-resetting
     construct. *)
  let d = List.find (fun d -> d.Diagnostic.d_check = "jump-escape") ds in
  Alcotest.(check bool)
    (Fmt.str "message names the lambda: %s" d.Diagnostic.d_message)
    true
    (contains d.Diagnostic.d_message "lambda body")

let jump_arity_mismatch () =
  let p = Syntax.mk_var "p" Types.int in
  let j = Syntax.mk_join_var "j" [] [ p ] in
  let e =
    Syntax.Join
      ( Syntax.JNonRec
          { j_var = j; j_tyvars = []; j_params = [ p ]; j_rhs = Syntax.Var p },
        Syntax.Jump (j, [], [], Types.int) )
  in
  fails_lint e;
  Alcotest.(check bool) "jump-arity reported" true
    (has_check "jump-arity" (errors_of e))

let join_as_value () =
  let p = Syntax.mk_var "p" Types.int in
  let j = Syntax.mk_join_var "j" [] [ p ] in
  let e =
    Syntax.Join
      ( Syntax.JNonRec
          { j_var = j; j_tyvars = []; j_params = [ p ]; j_rhs = Syntax.Var p },
        Syntax.Var j )
  in
  fails_lint e;
  Alcotest.(check bool) "join-as-value reported" true
    (has_check "join-as-value" (errors_of e))

let jump_unbound () =
  let p = Syntax.mk_var "p" Types.int in
  let j = Syntax.mk_join_var "j" [] [ p ] in
  let e = Syntax.Jump (j, [], [ Syntax.Lit (Literal.Int 0) ], Types.int) in
  Alcotest.(check bool) "jump-unbound reported" true
    (has_check "jump-unbound" (errors_of e))

let join_binder_type () =
  let p = Syntax.mk_var "p" Types.int in
  let j = Syntax.mk_var "j" Types.int (* not a join-point type *) in
  let e =
    Syntax.Join
      ( Syntax.JNonRec
          { j_var = j; j_tyvars = []; j_params = [ p ]; j_rhs = Syntax.Var p },
        Syntax.Jump (j, [], [ Syntax.Lit (Literal.Int 0) ], Types.int) )
  in
  Alcotest.(check bool) "join-binder-type reported" true
    (has_check "join-binder-type" (errors_of e))

let dead_join_warning () =
  let p = Syntax.mk_var "p" Types.int in
  let j = Syntax.mk_join_var "j" [] [ p ] in
  let e =
    Syntax.Join
      ( Syntax.JNonRec
          { j_var = j; j_tyvars = []; j_params = [ p ]; j_rhs = Syntax.Var p },
        Syntax.Lit (Literal.Int 0) )
  in
  let ds = Absint.verify e in
  Alcotest.(check int) "no errors" 0
    (List.length (List.filter Diagnostic.is_error ds));
  Alcotest.(check bool) "dead-join warned" true (has_check "dead-join" ds)

let ill_formed_application () =
  let e =
    Syntax.App (Syntax.Lit (Literal.Int 0), Syntax.Lit (Literal.Int 1))
  in
  fails_lint e;
  Alcotest.(check bool) "ill-formed-application reported" true
    (has_check "ill-formed-application" (errors_of e))

(* Every Ill_typed corruption the fault registry can inject must be
   rejected by the verifier, exactly as Lint rejects it. *)
let rejects_fault_injected_trees () =
  let sample = ok_join () in
  let _ = lints sample in
  List.iter
    (fun point ->
      let corrupted =
        Fault.with_armed
          [ (point, Fault.Ill_typed) ]
          (fun () -> Fault.point point sample)
      in
      Alcotest.(check bool) (point ^ " breaks lint") false
        (Lint.well_typed dc corrupted);
      Alcotest.(check bool)
        (point ^ " rejected by the verifier")
        true
        (errors_of corrupted <> []))
    Fault.points

(* ---------------- liveness ---------------- *)

let dead_binder_basics () =
  (* let x = 0 in 1: x is dead. *)
  let e = B.let_ "x" (B.int 0) (fun _ -> B.int 1) in
  let x =
    match Absint.let_binders e with [ x ] -> x | _ -> Alcotest.fail "binders"
  in
  Alcotest.(check bool) "syntactically dead binder found" true
    (Ident.Set.mem x.Syntax.v_name (Absint.dead_binders e));
  (* let x = 0 in let y = x in 2: y is dead, and x is used *only* by
     y, so it is transitively dead — beyond Occur's zero-count test. *)
  let e = B.let_ "x" (B.int 0) (fun x -> B.let_ "y" x (fun _ -> B.int 2)) in
  let dead = Absint.dead_binders e in
  Alcotest.(check int) "both transitively dead" 2 (Ident.Set.cardinal dead);
  (* let x = 0 in x: live. *)
  let e = B.let_ "x" (B.int 0) (fun x -> x) in
  Alcotest.(check int) "used binder is live" 0
    (Ident.Set.cardinal (Absint.dead_binders e))

(* On the whole corpus: a census count of 0 implies Absint-dead (the
   analysis is strictly stronger, never weaker). *)
let dead_agrees_with_occur () =
  List.iter
    (fun (name, e) ->
      let census = Occur.census e in
      let dead = Absint.dead_binders e in
      List.iter
        (fun (x : Syntax.var) ->
          match Occur.use census x with
          | Some u when u.count = 0 ->
              if not (Ident.Set.mem x.Syntax.v_name dead) then
                Alcotest.failf "%s: %s has zero occurrences but is not dead"
                  name
                  (Ident.site x.Syntax.v_name)
          | _ -> ())
        (Absint.let_binders e))
    (corpus ())

(* ---------------- abstract soundness, fuzzed ---------------- *)

(* The acceptance-criteria run: 200 seeded cases through the full
   differential oracle with the absint soundness oracle armed — the
   concrete result must lie in the concretization of the abstract one
   on the seed and on every optimised output (all three pipeline
   configurations). *)
let soundness_vs_eval () =
  for seed = 0 to 199 do
    let e = Gen.program_of_seed seed in
    match Fuzz.check_program ~absint:true e with
    | Fuzz.Pass | Fuzz.Skip _ -> ()
    | Fuzz.Fail { mode; kind; detail } ->
        Alcotest.failf "seed %d: %s under %s: %s@.%s" seed kind mode detail
          (Sexp.write e)
  done

(* ---------------- corpus & examples sweep ---------------- *)

(* The committed corpus is discipline-clean; its missed-optimization
   warning counts are pinned so a pipeline change that starts (or
   stops) leaving provably-foldable or dead sites behind is visible in
   review. Regenerate with:
     dune exec bin/fjc.exe -- check test/corpus/*.sexp *)
let corpus_warning_snapshot =
  [
    ("interesting-300.sexp", 3);
    ("interesting-301.sexp", 0);
    ("interesting-303.sexp", 2);
    ("interesting-304.sexp", 4);
    ("interesting-306.sexp", 3);
    ("interesting-307.sexp", 2);
    ("interesting-317.sexp", 1);
    ("interesting-336.sexp", 5);
    ("interesting-339.sexp", 3);
    ("interesting-42.sexp", 2);
    ("interesting-44.sexp", 1);
    ("interesting-45.sexp", 6);
    ("interesting-46.sexp", 5);
    ("interesting-47.sexp", 0);
    ("interesting-50.sexp", 1);
    ("interesting-51.sexp", 4);
    ("interesting-53.sexp", 1);
    ("interesting-58.sexp", 1);
    ("interesting-95.sexp", 6);
  ]

let corpus_sweep () =
  let cases = corpus () in
  Alcotest.(check bool) "corpus present" true (List.length cases >= 10);
  List.iter
    (fun (name, e) ->
      let r = Absint.check ~config:(check_config dc) e in
      Alcotest.(check int)
        (name ^ ": zero discipline errors")
        0 r.Absint.c_errors;
      match List.assoc_opt name corpus_warning_snapshot with
      | None ->
          Alcotest.failf
            "%s: not in the warning snapshot — add (%S, %d) to \
             corpus_warning_snapshot"
            name name r.Absint.c_warnings
      | Some expected ->
          Alcotest.(check int)
            (name ^ ": warning count matches the snapshot")
            expected r.Absint.c_warnings)
    cases

let examples_sweep () =
  let cases = examples () in
  Alcotest.(check bool) "examples present" true (List.length cases >= 4);
  List.iter
    (fun (name, denv, core) ->
      let r = Absint.check ~config:(check_config denv) core in
      Alcotest.(check int)
        (name ^ ": zero discipline errors")
        0 r.Absint.c_errors;
      Alcotest.(check int)
        (name ^ ": no missed-opt warnings")
        0 r.Absint.c_warnings)
    cases

(* ---------------- missed-optimization report ---------------- *)

let missed_reports_foldable_and_dead () =
  (* A "pipeline output" with a provably foldable primop under a
     binder and a dead binding: both must be reported, with the
     no-ledger-entry reason (an empty ledger was "passed in"). *)
  let e =
    B.let_ "dead" (B.int 0) (fun _ ->
        B.let_ "s" (B.add (B.int 1) (B.int 2)) (fun s -> s))
  in
  let ds, _iters = Absint.missed ~decisions:[] e in
  Alcotest.(check bool) "constant fold reported" true
    (has_check "missed-constant-fold" ds);
  Alcotest.(check bool) "dead binding reported" true
    (has_check "missed-dead-binding" ds);
  List.iter
    (fun d ->
      Alcotest.(check bool) "ledger cross-reference present" true
        (d.Diagnostic.d_reason <> None))
    ds

let check_skips_pipeline_on_errors () =
  let e =
    Syntax.App (Syntax.Lit (Literal.Int 0), Syntax.Lit (Literal.Int 1))
  in
  let r = Absint.check ~config:(check_config dc) e in
  Alcotest.(check bool) "errors found" true (r.Absint.c_errors > 0);
  Alcotest.(check bool) "no missed-opt stage ran" true
    (not
       (List.exists
          (fun d ->
            String.length d.Diagnostic.d_check >= 6
            && String.sub d.Diagnostic.d_check 0 6 = "missed")
          r.Absint.c_diagnostics))

(* ---------------- diagnostics JSON ---------------- *)

let diagnostic_round_trip () =
  let ds =
    [
      Diagnostic.error "jump-arity" ~site:"j" "wrong arity";
      Diagnostic.warning "dead-join" ~site:"k" "never jumped to";
      Diagnostic.warning ~pass:"simplify" ~reason:"size 74 > threshold 60"
        "missed-constant-fold" ~site:"s" "provably constant";
    ]
  in
  List.iter
    (fun d ->
      match Diagnostic.of_json (Diagnostic.to_json d) with
      | Ok d' ->
          Alcotest.(check string)
            "round trips"
            (Fmt.str "%a" Diagnostic.pp d)
            (Fmt.str "%a" Diagnostic.pp d')
      | Error m -> Alcotest.failf "round trip failed: %s" m)
    ds;
  (match Diagnostic.of_json (Telemetry.Json.Str "nope") with
  | Ok _ -> Alcotest.fail "non-object accepted"
  | Error _ -> ());
  (match
     Diagnostic.of_json
       (Telemetry.Json.Obj [ ("check", Telemetry.Json.Str "x") ])
   with
  | Ok _ -> Alcotest.fail "missing fields accepted"
  | Error _ -> ());
  Alcotest.(check (pair int int))
    "count splits severities" (1, 2) (Diagnostic.count ds)

let tests =
  [
    test "lattice laws" lattice_laws;
    test "concretization" concretization;
    test "constants flow through jumps" const_through_jump;
    test "primops fold" primops_fold;
    test "case feasibility" case_feasibility;
    test "recursive joins terminate (widening)" recursion_terminates;
    test "verifier accepts clean joins" verifier_accepts_clean;
    test "jump under a lambda is an escape" jump_escape_under_lambda;
    test "jump arity mismatch" jump_arity_mismatch;
    test "join point as a first-class value" join_as_value;
    test "jump to an unbound label" jump_unbound;
    test "join binder type" join_binder_type;
    test "unreached join points warn" dead_join_warning;
    test "literal in application head" ill_formed_application;
    test "rejects every fault-injected ill-typed tree"
      rejects_fault_injected_trees;
    test "dead-binder basics (transitive)" dead_binder_basics;
    test "dead facts agree with Occur on the corpus" dead_agrees_with_occur;
    test "abstract soundness vs Eval, 200 seeds x 3 configs"
      soundness_vs_eval;
    test "corpus sweep: clean, warnings snapshotted" corpus_sweep;
    test "examples sweep: clean" examples_sweep;
    test "missed-opt report (foldable + dead)" missed_reports_foldable_and_dead;
    test "check skips the pipeline on discipline errors"
      check_skips_pipeline_on_errors;
    test "diagnostic JSON round trip" diagnostic_round_trip;
  ]
