(* Quick smoke exercise of the core pipeline on the paper's find/any
   example (Sec. 5): contify the local loop, inline find into any,
   case-of-case with join points; check Lint at every step and compare
   evaluation results and allocation counts. Run manually:
   dune exec test/smoke.exe *)

open Fj_core
open Builder

let dcenv = Datacon.builtins

(* find : (Int -> Bool) -> List Int -> Maybe Int, with a local loop
   [go], monomorphised at Int to keep the smoke test small. *)
let find_def () =
  let ilist = list_ty Types.int in
  let imaybe = maybe_ty Types.int in
  lam "p" (Types.Arrow (Types.int, Types.bool)) (fun p ->
      lam "xs0" ilist (fun xs0 ->
          letrec1 "go" (Types.Arrow (ilist, imaybe))
            (fun go ->
              lam "xs" ilist (fun xs ->
                  case xs
                    [
                      alt_con "Cons" [ Types.int ] [ "x"; "xs'" ]
                        (fun binders ->
                          match binders with
                          | [ x; xs' ] ->
                              if_ (app p x) (just Types.int x) (app go xs')
                          | _ -> assert false);
                      alt_con "Nil" [ Types.int ] [] (fun _ ->
                          nothing Types.int);
                    ]))
            (fun go -> app go xs0)))

(* any p xs = case find p xs of Just _ -> True ; Nothing -> False *)
let any_def find =
  let ilist = list_ty Types.int in
  lam "p" (Types.Arrow (Types.int, Types.bool)) (fun p ->
      lam "xs" ilist (fun xs ->
          case
            (app2 find p xs)
            [
              alt_con "Just" [ Types.int ] [ "y" ] (fun _ -> true_);
              alt_con "Nothing" [ Types.int ] [] (fun _ -> false_);
            ]))

let lint_or_die label e =
  match Lint.lint_result dcenv e with
  | Ok ty -> Fmt.pr "%s lints : %a@." label Types.pp ty
  | Error err ->
      Fmt.pr "%s LINT FAILURE: %a@." label Lint.pp_error err;
      Fmt.pr "term: %a@." Pretty.pp e;
      exit 1

let () =
  let find = find_def () in
  lint_or_die "find" find;
  (* Program: any (\x -> x > 3) [1;2;3;4;5] inlined via a let. *)
  let prog mk_find =
    let_ "find" (mk_find ()) (fun find ->
        let_ "any" (any_def find) (fun any ->
            app2 any
              (lam "x" Types.int (fun x -> gt x (int 3)))
              (int_list [ 1; 2; 3; 4; 5 ])))
  in
  let p0 = prog find_def in
  lint_or_die "program" p0;
  let t0, s0 = Eval.run_deep p0 in
  Fmt.pr "unoptimised result: %a (%a)@." Eval.pp_tree t0 Eval.pp_stats s0;

  (* Contify *)
  let p1, _ = Contify.contify p0 in
  lint_or_die "contified" p1;
  let t1, s1 = Eval.run_deep p1 in
  Fmt.pr "contified result: %a (%a)@." Eval.pp_tree t1 Eval.pp_stats s1;

  (* Simplify with join points *)
  let cfg = Simplify.default_config ~datacons:dcenv () in
  let p2 = Simplify.simplify cfg p1 in
  lint_or_die "simplified" p2;
  Fmt.pr "--- simplified core ---@.%a@." Pretty.pp p2;
  let t2, s2 = Eval.run_deep p2 in
  Fmt.pr "simplified result: %a (%a)@." Eval.pp_tree t2 Eval.pp_stats s2;

  (* Baseline: no contify, no joins *)
  let cfgb = Simplify.default_config ~join_points:false ~datacons:dcenv () in
  let p3 = Simplify.simplify cfgb p0 in
  lint_or_die "baseline-simplified" p3;
  let t3, s3 = Eval.run_deep p3 in
  Fmt.pr "baseline result: %a (%a)@." Eval.pp_tree t3 Eval.pp_stats s3;
  assert (Eval.equal_tree t0 t1);
  assert (Eval.equal_tree t0 t2);
  assert (Eval.equal_tree t0 t3);
  Fmt.pr "smoke OK@."

(* Pipeline + erasure round-trip *)
let () =
  let p0 =
    let_ "find" (find_def ()) (fun find ->
        let_ "any" (any_def find) (fun any ->
            app2 any
              (lam "x" Types.int (fun x -> gt x (int 3)))
              (int_list [ 1; 2; 3; 4; 5 ])))
  in
  let t0, _ = Eval.run_deep p0 in
  List.iter
    (fun mode ->
      let cfg = Pipeline.default_config ~mode ~lint_every_pass:true () in
      let e, report = Pipeline.run_report cfg p0 in
      let t, s = Eval.run_deep e in
      Fmt.pr "pipeline %-28s: %a (%a)@." (Pipeline.mode_name mode)
        Eval.pp_tree t Eval.pp_stats s;
      ignore report;
      assert (Eval.equal_tree t0 t);
      (* erasure *)
      let erased = Erase.erase e in
      assert (Erase.is_join_free erased);
      (match Lint.lint_result dcenv erased with
      | Ok _ -> ()
      | Error err ->
          Fmt.pr "ERASED LINT FAIL: %a@.%a@." Lint.pp_error err Pretty.pp
            erased;
          exit 1);
      let te, _ = Eval.run_deep erased in
      assert (Eval.equal_tree t0 te))
    [ Pipeline.Baseline; Pipeline.Join_points; Pipeline.No_cc ];
  Fmt.pr "pipeline+erase OK@."
