(** Tests for {!Fj_core.Erase} — the executable Theorem 5: every
    well-typed F_J term has an equivalent System F (join-free) term,
    via commuting-normal form + de-contification. Includes the worked
    examples of Sec. 6. *)

open Fj_core
open Syntax
open Util
module B = Builder

let check_erase e =
  let _ = lints e in
  let e' = Erase.erase e in
  Alcotest.(check bool) "join-free" true (Erase.is_join_free e');
  let _ = lints e' in
  same_result e e';
  e'

(* Sec. 6 example 1: join j x = x + 1 in (jump j 1 (Int -> Int)) 2 —
   the jump is not a tail call; abort must fire first. *)
let non_tail_jump_erases () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn =
    { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = B.add (Var x) (B.int 1) }
  in
  let e =
    Join
      ( JNonRec defn,
        App
          (Jump (jv, [], [ B.int 1 ], Types.Arrow (Types.int, Types.int)), B.int 2)
      )
  in
  let e' = check_erase e in
  let t, _ = run e' in
  Alcotest.(check string) "result" "2" (Fmt.str "%a" Eval.pp_tree t)

(* Sec. 6 example 2: the jump buried inside a tail context under an
   application — needs commute then abort. *)
let buried_jump_erases () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn =
    { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = B.add (Var x) (B.int 1) }
  in
  let i2i = Types.Arrow (Types.int, Types.int) in
  let e =
    Join
      ( JNonRec defn,
        App
          ( B.if_ B.true_
              (Jump (jv, [], [ B.int 1 ], i2i))
              (Jump (jv, [], [ B.int 3 ], i2i)),
            B.int 2 ) )
  in
  let e' = check_erase e in
  let t, _ = run e' in
  Alcotest.(check string) "result" "2" (Fmt.str "%a" Eval.pp_tree t)

let simple_join_erases () =
  let e =
    B.join1 "j"
      [ ("x", Types.int) ]
      (fun xs -> B.add (List.hd xs) (B.int 1))
      (fun jmp -> jmp [ B.int 41 ] Types.int)
  in
  ignore (check_erase e)

let recursive_join_erases () =
  let e =
    B.joinrec1 "loop"
      [ ("n", Types.int); ("acc", Types.int) ]
      (fun jmp xs ->
        match xs with
        | [ n; acc ] ->
            B.if_ (B.le n (B.int 0)) acc
              (jmp [ B.sub n (B.int 1); B.add acc n ] Types.int)
        | _ -> assert false)
      (fun jmp -> jmp [ B.int 10; B.int 0 ] Types.int)
  in
  let e' = check_erase e in
  let t, _ = run e' in
  Alcotest.(check string) "sum" "55" (Fmt.str "%a" Eval.pp_tree t)

(* Erasure round-trip: contify then erase recovers a join-free term
   with the same meaning. *)
let contify_erase_roundtrip () =
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f -> B.if_ B.true_ (App (f, B.int 1)) (App (f, B.int 2)))
  in
  let contified = Contify.contify e in
  let erased = check_erase contified in
  same_result e erased

(* Erasing output of the full optimiser. *)
let erase_optimised_pipeline () =
  let denv, core =
    Fj_surface.Prelude.compile
      "def main = sum (map (\\x -> x + 1) (filter even (enumFromTo 1 30)))"
  in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv ()
  in
  let opt = Pipeline.run cfg core in
  let erased = Erase.erase opt in
  Alcotest.(check bool) "join-free" true (Erase.is_join_free erased);
  (match Lint.lint_result denv erased with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "erased does not lint: %a" Lint.pp_error err);
  same_result core erased

(* Commuting-normal form alone already makes every jump a tail call:
   after [commuting_normal_form], jinline must apply to every
   once-used join. *)
let cnf_tail_property () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn =
    { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = B.add (Var x) (B.int 1) }
  in
  let e =
    Join
      ( JNonRec defn,
        App
          (Jump (jv, [], [ B.int 1 ], Types.Arrow (Types.int, Types.int)), B.int 2)
      )
  in
  let cnf = Erase.commuting_normal_form e in
  let _ = lints cnf in
  same_result e cnf;
  match cnf with
  | Join (JNonRec d, body) ->
      Alcotest.(check bool) "jinline applies post-CNF" true
        (Axioms.substitute_jumps ~defn:d body <> None)
  | e' -> Alcotest.failf "expected a join at top: %a" Pretty.pp e'

let tests =
  [
    test "non-tail jump erases (Sec. 6 ex. 1)" non_tail_jump_erases;
    test "buried jump erases (Sec. 6 ex. 2)" buried_jump_erases;
    test "simple join erases" simple_join_erases;
    test "recursive join erases" recursive_join_erases;
    test "contify/erase round trip" contify_erase_roundtrip;
    test "erase optimised pipeline output" erase_optimised_pipeline;
    test "CNF makes jumps tail calls (Lemma 4)" cnf_tail_property;
  ]
