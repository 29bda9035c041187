(** Tests for {!Fj_core.Contify} — Fig. 5: inferring join points from
    tail-called let bindings. *)

open Fj_core
open Syntax
open Util
module B = Builder

let count_joins e =
  let n = ref 0 in
  let rec go = function
    | Var _ | Lit _ -> ()
    | Con (_, _, es) | Prim (_, es) -> List.iter go es
    | App (f, a) -> go f; go a
    | TyApp (f, _) -> go f
    | Lam (_, b) | TyLam (_, b) -> go b
    | Let ((NonRec (_, rhs) | Strict (_, rhs)), body) -> go rhs; go body
    | Let (Rec ps, body) -> List.iter (fun (_, r) -> go r) ps; go body
    | Case (s, alts) -> go s; List.iter (fun a -> go a.alt_rhs) alts
    | Join (jb, body) ->
        incr n;
        List.iter (fun d -> go d.j_rhs) (join_defns jb);
        go body
    | Jump (_, _, es, _) -> List.iter go es
  in
  go e;
  !n

let check_contify ?(expect_joins = 1) e =
  let _ = lints e in
  let e', _ = Contify.contify e in
  let _ = lints e' in
  same_result e e';
  Alcotest.(check int) "join points introduced" expect_joins (count_joins e');
  e'

(* let f x = x + 1 in case b of {T -> f 1; F -> f 2}: all tail calls. *)
let simple_contify () =
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f ->
        B.if_ B.true_ (App (f, B.int 1)) (App (f, B.int 2)))
  in
  ignore (check_contify e)

(* A call in scrutinee position must NOT be contified. *)
let scrutinee_blocks () =
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f ->
        B.case (App (f, B.int 1)) [ B.alt_default (B.int 0) ])
  in
  ignore (check_contify ~expect_joins:0 e)

(* An escaping use (passed as an argument) must block contification. *)
let escape_blocks () =
  let apply =
    B.lam "g" (Types.Arrow (Types.int, Types.int)) (fun g -> App (g, B.int 1))
  in
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f -> App (apply, f))
  in
  ignore (check_contify ~expect_joins:0 e)

(* The paper's find: a recursive local loop, all tail calls. *)
let recursive_loop () =
  let ilist = B.list_ty Types.int in
  let e =
    B.letrec1 "go" (Types.Arrow (ilist, Types.int))
      (fun go ->
        B.lam "xs" ilist (fun xs ->
            B.case xs
              [
                B.alt_con "Cons" [ Types.int ] [ "x"; "rest" ] (fun bs ->
                    match bs with
                    | [ x; rest ] -> B.add x (App (go, rest))
                    | _ -> assert false);
                B.alt_con "Nil" [ Types.int ] [] (fun _ -> B.int 0);
              ]))
      (fun go -> App (go, B.int_list [ 1; 2; 3 ]))
  in
  (* The recursive call is in an argument of +, NOT tail: no contify. *)
  ignore (check_contify ~expect_joins:0 e)

let recursive_tail_loop () =
  let e =
    B.letrec1 "go"
      (Types.Arrow (Types.int, Types.Arrow (Types.int, Types.int)))
      (fun go ->
        B.lam "n" Types.int (fun n ->
            B.lam "acc" Types.int (fun acc ->
                B.if_ (B.le n (B.int 0)) acc
                  (B.app2 go (B.sub n (B.int 1)) (B.add acc n)))))
      (fun go -> B.app2 go (B.int 10) (B.int 0))
  in
  let e' = check_contify e in
  result_is "55" e'

(* Inconsistent call arities block contification. *)
let arity_mismatch_blocks () =
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun _ -> B.lam "y" Types.int (fun y -> y)))
      (fun f ->
        B.if_ B.true_
          (B.app2 f (B.int 1) (B.int 2))
          (B.app (B.app f (B.int 1)) (B.int 3)))
  in
  (* Both calls actually have the same shape here; make them differ. *)
  let e2 =
    B.let_ "g"
      (B.lam "x" Types.int (fun _ -> B.lam "y" Types.int (fun y -> y)))
      (fun g ->
        B.if_ B.true_
          (B.app2 g (B.int 1) (B.int 2))
          (B.app
             (B.lam "h" (Types.Arrow (Types.int, Types.int)) (fun h ->
                  B.app h (B.int 9)))
             (B.app g (B.int 1))))
  in
  ignore (check_contify e);
  ignore (check_contify ~expect_joins:0 e2)

(* The Fig. 5 type proviso: a function whose body type differs from the
   let body's type cannot be contified. *)
let return_type_proviso () =
  (* let f x = Just x in case b of {T -> f 1; F -> f 2} : Maybe Int —
     types agree, contifies. *)
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.just Types.int x))
      (fun f -> B.if_ B.true_ (App (f, B.int 1)) (App (f, B.int 2)))
  in
  ignore (check_contify e);
  (* Polymorphic-return: let f = /\a. \x:Int. error-ish... we emulate
     the failure case by a call whose instantiations differ; then the
     rhs body type mentions a and cannot equal the scope type. *)
  let a = Ident.fresh "a" in
  let f_ty =
    Types.Forall (a, Types.Arrow (Types.int, Types.Arrow (Types.Var a, Types.Var a)))
  in
  ignore f_ty

(* Contification happens under binders too (inside lambdas, lets). *)
let contify_everywhere () =
  let inner () =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f -> B.if_ B.true_ (App (f, B.int 1)) (App (f, B.int 2)))
  in
  let e = B.lam "unused" Types.int (fun _ -> inner ()) in
  let e', _ = Contify.contify e in
  Alcotest.(check int) "contified under lambda" 1 (count_joins e')

(* Once contified, jumps carry the right result type. *)
let jump_types_correct () =
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.just Types.int x))
      (fun f -> B.if_ B.true_ (App (f, B.int 1)) (App (f, B.int 2)))
  in
  let e', _ = Contify.contify e in
  let ty = lints e' in
  Alcotest.check ty_testable "overall type" (B.maybe_ty Types.int) ty

(* Contification is idempotent. *)
let idempotent () =
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f -> B.if_ B.true_ (App (f, B.int 1)) (App (f, B.int 2)))
  in
  let e1, _ = Contify.contify e in
  let e2, _ = Contify.contify e1 in
  Alcotest.(check int) "same join count" (count_joins e1) (count_joins e2);
  same_result e1 e2

(* A nullary binding used more than once is left alone (sharing). *)
let nullary_shared_not_contified () =
  let e =
    B.let_ "x"
      (B.add (B.int 1) (B.int 2))
      (fun x -> B.if_ B.true_ x x)
  in
  ignore (check_contify ~expect_joins:0 e)

(* ... but a nullary binding used exactly once can be contified. *)
let nullary_once_contified () =
  let e =
    B.let_ "x"
      (B.add (B.int 1) (B.int 2))
      (fun x -> B.if_ B.true_ x (B.int 0))
  in
  ignore (check_contify ~expect_joins:1 e)

(* The usage [contify] returns is [Occur.of_expr] of the tree it
   returns, though built bottom-up alongside it: on every bench program
   as elaborated, after Float In, and as the join-point pipeline leaves
   it (joins already bound), and on generated programs. *)
let returned_usage_is_of_expr () =
  let check name e =
    let e', usage = Contify.contify e in
    if not (Ident.Map.equal ( = ) usage (Occur.of_expr e')) then
      Alcotest.failf "%s: contify's usage differs from Occur.of_expr" name
  in
  List.iter
    (fun (pr : Bench_programs.program) ->
      let datacons, core = Bench_programs.compile pr in
      let name = pr.Bench_programs.name in
      check name core;
      check (name ^ " after float-in") (Float_in.run core);
      check (name ^ " compiled")
        (Pipeline.run
           (Pipeline.default_config ~mode:Pipeline.Join_points ~datacons ())
           core))
    Bench_programs.all;
  let st = Random.State.make [| 5 |] in
  for i = 1 to 300 do
    check (Fmt.str "generated program %d" i) (Gen.program st)
  done

let tests =
  [
    test "tail-called let becomes join" simple_contify;
    test "scrutinee call blocks" scrutinee_blocks;
    test "escaping use blocks" escape_blocks;
    test "non-tail recursion not contified" recursive_loop;
    test "tail recursion contified and runs" recursive_tail_loop;
    test "inconsistent arities block" arity_mismatch_blocks;
    test "return-type proviso" return_type_proviso;
    test "contify under binders" contify_everywhere;
    test "jump result types correct" jump_types_correct;
    test "idempotent" idempotent;
    test "shared nullary binding kept" nullary_shared_not_contified;
    test "once-used nullary contified" nullary_once_contified;
    test "returned usage is Occur.of_expr of the output"
      returned_usage_is_of_expr;
  ]
