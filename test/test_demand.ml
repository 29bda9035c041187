(** Tests for {!Fj_core.Demand} — strictness analysis and
    strictification (the Sec. 7 strictness story). *)

open Fj_core
open Syntax
open Util
module B = Builder

let sv e = Demand.strict_vars Ident.Map.empty e

let mem (x : var) s = Ident.Set.mem x.v_name s

let var_is_strict () =
  let x = mk_var "x" Types.int in
  Alcotest.(check bool) "a variable is strict in itself" true
    (mem x (sv (Var x)))

let lambda_is_lazy () =
  let x = mk_var "x" Types.int in
  Alcotest.(check bool) "lambdas force nothing" true
    (Ident.Set.is_empty (sv (B.lam "y" Types.int (fun _ -> Var x))))

let con_fields_lazy () =
  let x = mk_var "x" Types.int in
  Alcotest.(check bool) "constructor fields are lazy" false
    (mem x (sv (B.just Types.int (Var x))))

let primops_strict () =
  let x = mk_var "x" Types.int and y = mk_var "y" Types.int in
  let s = sv (B.add (Var x) (Var y)) in
  Alcotest.(check bool) "both args" true (mem x s && mem y s)

let case_meets_branches () =
  let x = mk_var "x" Types.int and y = mk_var "y" Types.int in
  let c = mk_var "c" Types.bool in
  (* strict in c (scrutinee) and x (both branches); lazy in y. *)
  let e = B.if_ (Var c) (B.add (Var x) (B.int 1)) (B.add (Var x) (Var y)) in
  let s = sv e in
  Alcotest.(check bool) "scrutinee strict" true (mem c s);
  Alcotest.(check bool) "common branch var strict" true (mem x s);
  Alcotest.(check bool) "one-branch var lazy" false (mem y s)

let let_chains_demand () =
  let y = mk_var "y" Types.int in
  (* let x = y + 1 in x * 2 — strict in y through the demanded x. *)
  let e =
    B.let_ "x" (B.add (Var y) (B.int 1)) (fun x -> B.mul x (B.int 2))
  in
  Alcotest.(check bool) "demand flows through demanded let" true
    (mem y (sv e))

let lazy_let_no_demand () =
  let y = mk_var "y" Types.int in
  let e =
    B.let_ "x" (B.add (Var y) (B.int 1)) (fun x ->
        B.if_ B.true_ (B.int 0) x)
  in
  Alcotest.(check bool) "no demand through undemanded let" false
    (mem y (sv e))

let fixpoint_loop_params () =
  (* join rec go n acc = if n <= 0 then acc else jump go (n-1) (acc+n):
     the fixpoint must find BOTH parameters strict ([acc] is strict only
     via the recursive jump + the True branch). *)
  let e =
    B.joinrec1 "go"
      [ ("n", Types.int); ("acc", Types.int) ]
      (fun jmp xs ->
        match xs with
        | [ n; acc ] ->
            B.if_ (B.le n (B.int 0)) acc
              (jmp [ B.sub n (B.int 1); B.add acc n ] Types.int)
        | _ -> assert false)
      (fun jmp -> jmp [ B.int 10; B.int 0 ] Types.int)
  in
  let e' = Demand.strictify e in
  let _ = lints e' in
  same_result e e';
  (* After strictification + a simplifier round, running must allocate
     nothing: the accumulator is forced before each jump. *)
  let e'' = Simplify.simplify (Simplify.default_config ()) e' in
  let _, s = run e'' in
  Alcotest.(check int) "loop runs allocation-free" 0 s.Eval.words

let accumulator_thunks_eliminated () =
  (* The n-body shape through the whole pipeline: without strictness the
     accumulator builds a thunk chain. *)
  let denv, core =
    Fj_surface.Prelude.compile
      {|
def main =
  let rec go i acc =
    if i >= 50 then acc else go (i + 1) (acc + abs (0 - i))
  in go 0 0
|}
  in
  let words ~strictness =
    let cfg =
      Pipeline.default_config ~mode:Pipeline.Join_points ~strictness
        ~datacons:denv ()
    in
    let e = Pipeline.run cfg core in
    let _ = lints ~env:denv e in
    same_result core e;
    (snd (run e)).Eval.words
  in
  let w_on = words ~strictness:true in
  let w_off = words ~strictness:false in
  Alcotest.(check int) "zero allocation with demand analysis" 0 w_on;
  Alcotest.(check bool)
    (Fmt.str "thunks without it (%d > 0)" w_off)
    true (w_off > 0)

let strict_let_semantics () =
  (* A strict let with a demanded binder behaves like the lazy one. *)
  let x = mk_var "x" Types.int in
  let lazy_e =
    Let (NonRec (x, B.add (B.int 1) (B.int 2)), B.mul (Var x) (Var x))
  in
  let strict_e =
    Let (Strict (x, B.add (B.int 1) (B.int 2)), B.mul (Var x) (Var x))
  in
  let _ = lints strict_e in
  same_result lazy_e strict_e

let strict_let_forces () =
  (* Unlike a lazy let, a strict binding of a divergent rhs diverges
     even if unused. *)
  let diverge =
    let f = mk_var "f" Types.int in
    Let (Rec [ (f, Var f) ], Var f)
  in
  let x = mk_var "x" Types.int in
  let e = Let (Strict (x, diverge), B.int 42) in
  (match Eval.eval ~fuel:10_000 e with
  | exception Eval.Stuck _ -> ()
  | exception Eval.Out_of_fuel -> ()
  | _ -> Alcotest.fail "strict binding must force its rhs");
  (* And the simplifier must NOT discard it as dead code. *)
  let e' = Simplify.simplify (Simplify.default_config ()) e in
  match Eval.eval ~fuel:10_000 e' with
  | exception Eval.Stuck _ -> ()
  | exception Eval.Out_of_fuel -> ()
  | _ ->
      Alcotest.failf "simplifier dropped a non-terminating strict binding: %a"
        Pretty.pp e'

let strictify_preserves_surface_results () =
  List.iter
    (fun src ->
      let denv, core = Fj_surface.Prelude.compile src in
      let e' = Demand.strictify core in
      (match Lint.lint_result denv e' with
      | Ok _ -> ()
      | Error err ->
          Alcotest.failf "strictify broke lint: %a" Lint.pp_error err);
      same_result core e')
    [
      "def main = sum (map (\\x -> x * 2) (enumFromTo 1 20))";
      "def main = let rec f n = if n <= 0 then 0 else n + f (n - 1) in f 9";
      "def main = case mHead [1,2,3] of { Just x -> x; Nothing -> 0 }";
    ]

(* j is strict in a only, so the jump forces (2 * 3) and leaves
   (4 * 5), the argument of the lazy b, unforced. *)
let jump_forces_masked_args () =
  let e =
    B.join1 "j"
      [ ("a", Types.int); ("b", Types.int) ]
      (fun ps -> B.add (List.hd ps) (B.int 1))
      (fun jump ->
        jump [ B.mul (B.int 2) (B.int 3); B.mul (B.int 4) (B.int 5) ] Types.int)
  in
  let e' = Demand.strictify e in
  (match e' with
  | Join (_, Let (Strict (s, Prim _), Jump (_, _, [ Var a; Prim _ ], _)))
    when Ident.equal s.v_name a.v_name -> ()
  | _ ->
      Alcotest.failf "expected only the first argument forced: %a" Pretty.pp
        e');
  same_result e e'

let tests =
  [
    test "a variable is strict in itself" var_is_strict;
    test "lambdas are lazy" lambda_is_lazy;
    test "constructor fields are lazy" con_fields_lazy;
    test "primops are strict" primops_strict;
    test "case meets branch demands" case_meets_branches;
    test "demand flows through demanded lets" let_chains_demand;
    test "no demand through undemanded lets" lazy_let_no_demand;
    test "fixpoint finds loop accumulators" fixpoint_loop_params;
    test "accumulator thunks eliminated end-to-end"
      accumulator_thunks_eliminated;
    test "a jump forces only its strict arguments" jump_forces_masked_args;
    test "strict let preserves semantics" strict_let_semantics;
    test "strict let forces; never dropped" strict_let_forces;
    test "strictify preserves surface programs" strictify_preserves_surface_results;
  ]
