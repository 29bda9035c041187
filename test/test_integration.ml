(** Integration tests: every example program and every benchmark
    workload, end to end through every compiler configuration, the
    erasure procedure, and the block-machine backend — all checked to
    compute the same value, with every intermediate Linted. *)

open Fj_core
open Util

let modes = [ Pipeline.Baseline; Pipeline.Join_points; Pipeline.No_cc ]

(* Exercise one compiled program through the full matrix. *)
let exercise ?(check_machine = true) name denv core =
  (match Lint.lint_result denv core with
  | Ok _ -> ()
  | Error err ->
      Alcotest.failf "%s: input does not lint: %a" name Lint.pp_error err);
  let t0, _ = run core in
  List.iter
    (fun mode ->
      let opt =
        compile_clean
          (Fmt.str "%s [%s]" name (Pipeline.mode_name mode))
          (Pipeline.default_config ~mode ~datacons:denv ~inline_threshold:300
             ~policy:Guard.Recover ())
          core
      in
      let t, _ = run opt in
      if not (Eval.equal_tree t0 t) then
        Alcotest.failf "%s [%s]: optimised result %a differs from %a" name
          (Pipeline.mode_name mode) Eval.pp_tree t Eval.pp_tree t0;
      (* Erasure (Thm. 5) on the optimised output. *)
      let erased = Erase.erase opt in
      if not (Erase.is_join_free erased) then
        Alcotest.failf "%s [%s]: erasure left join points" name
          (Pipeline.mode_name mode);
      (match Lint.lint_result denv erased with
      | Ok _ -> ()
      | Error err ->
          Alcotest.failf "%s [%s]: erased term does not lint: %a" name
            (Pipeline.mode_name mode) Lint.pp_error err);
      let te, _ = run erased in
      if not (Eval.equal_tree t0 te) then
        Alcotest.failf "%s [%s]: erased result differs" name
          (Pipeline.mode_name mode);
      (* Block machine agreement (call-by-value: only for programs
         whose evaluation is strictness-independent — all of these). *)
      if check_machine then begin
        let prog = Fj_machine.Lower.lower_program opt in
        match Fj_machine.Bmachine.run ~fuel:50_000_000 prog with
        | v, _ ->
            let tm = Fj_machine.Bmachine.tree_of_value v in
            if not (Eval.equal_tree t0 tm) then
              Alcotest.failf "%s [%s]: machine result %a differs" name
                (Pipeline.mode_name mode) Eval.pp_tree tm
        | exception Fj_machine.Bmachine.Stuck m ->
            Alcotest.failf "%s [%s]: machine stuck: %s" name
              (Pipeline.mode_name mode) m
      end)
    modes

(* ---------------- example .fj files ---------------- *)

let example_programs () = repo_files "examples/programs" ".fj"

(* A pipeline shape no example file has: map over filter, summed. *)
let inline_programs =
  [
    ( "map-filter",
      "def main = sum (map (\\x -> x * 2) (filter odd (enumFromTo 1 100)))" );
  ]

let test_examples () =
  let progs = example_programs () in
  Alcotest.(check bool) "found example programs" true (List.length progs >= 4);
  List.iter
    (fun (name, src) ->
      let denv, core = Fj_surface.Prelude.compile src in
      (* primes.fj relies on laziness of sieve? take-limits the sieve,
         and the sieve recursion is productive; the block machine is
         strict, so skip it for programs marked lazy. *)
      let lazy_program = name = "primes.fj" in
      exercise ~check_machine:(not lazy_program) name denv core)
    (progs @ inline_programs)

(* ---------------- benchmark workloads ---------------- *)

let test_nofib_compile () =
  (* The full matrix on every benchmark program would be slow under the
     test runner; exercising compilation + join-points mode with lint
     between passes covers the interesting surface (the bench harness
     itself cross-checks results across modes on every run). The
     unoptimised result is also the answer the file pins in its
     [-- expected: N] header, the one fjbench checks every output
     against. *)
  List.iter
    (fun (name, src) ->
      let denv, core = Fj_surface.Prelude.compile src in
      let opt =
        compile_clean name
          (Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
             ~inline_threshold:300 ~policy:Guard.Recover ())
          core
      in
      let t0, _ = run core in
      (match Scanf.sscanf_opt src "-- expected: %d" Fun.id with
      | Some n when Eval.equal_tree t0 (Eval.TLit (Literal.Int n)) -> ()
      | Some n ->
          Alcotest.failf "%s: pinned answer is %d, got %a" name n Eval.pp_tree
            t0
      | None -> Alcotest.failf "%s: no \"-- expected: N\" header" name);
      let t, _ = run opt in
      if not (Eval.equal_tree t0 t) then
        Alcotest.failf "%s: optimised result differs" name)
    (nofib ())

let tests =
  [
    test "example .fj programs, full matrix" test_examples;
    test "benchmark workloads compile and agree" test_nofib_compile;
  ]
