(** Tests for {!Fj_core.Cse} — the Sec. 8 direct-style CSE example. *)

open Fj_core
open Syntax
open Util
module B = Builder

let cse e =
  let _ = lints e in
  let e' = Cse.run e in
  let _ = lints e' in
  same_result e e';
  e'

(* The paper's example: in [f (g x) (g x)] the common sub-expression is
   easy to see in direct style. We bind the first occurrence so there
   is a sharable witness. *)
let f_gx_gx () =
  let i2i = Types.Arrow (Types.int, Types.int) in
  let e =
    B.lam "f" (Types.arrows [ Types.int; Types.int ] Types.int) (fun f ->
        B.lam "g" i2i (fun g ->
            B.lam "x" Types.int (fun x ->
                B.let_ "a" (B.app g x) (fun a ->
                    B.app2 f a (B.app g x)))))
  in
  let e' = cse e in
  (* The second [g x] must have become a reference to [a]: exactly one
     call with head [g] remains (in the let's right-hand side). *)
  let rec count_g_calls = function
    | App (Var g, _) when Ident.name g.v_name = "g" -> 1
    | App (f, a) -> count_g_calls f + count_g_calls a
    | Lam (_, b) -> count_g_calls b
    | Let ((NonRec (_, r) | Strict (_, r)), b) ->
        count_g_calls r + count_g_calls b
    | _ -> 0
  in
  Alcotest.(check int) "only one g x call remains" 1 (count_g_calls e')

let shares_primops () =
  let e =
    B.lam "x" Types.int (fun x ->
        B.let_ "a" (B.mul x x) (fun a -> B.add a (B.mul x x)))
  in
  match cse e with
  | Lam (_, Let (NonRec (a, _), Prim (Primop.Add, [ Var u; Var v ]))) ->
      Alcotest.(check bool) "both operands are the binder" true
        (var_equal u a && var_equal v a)
  | e' -> Alcotest.failf "unexpected shape: %a" Pretty.pp e'

let shares_constructors () =
  let e =
    B.lam "x" Types.int (fun x ->
        B.let_ "p" (B.just Types.int x) (fun p ->
            B.pair (B.maybe_ty Types.int) (B.maybe_ty Types.int) p
              (B.just Types.int x)))
  in
  match cse e with
  | Lam (_, Let (NonRec (p, _), Con (_, _, [ Var u; Var v ]))) ->
      Alcotest.(check bool) "constructor shared" true
        (var_equal u p && var_equal v p)
  | e' -> Alcotest.failf "unexpected shape: %a" Pretty.pp e'

let no_sharing_across_branches () =
  (* Bindings in one branch must not be visible in a sibling branch. *)
  let e =
    B.lam "x" Types.int (fun x ->
        B.if_ B.true_
          (B.let_ "a" (B.mul x x) (fun a -> a))
          (B.mul x x))
  in
  let e' = cse e in
  (* The second branch's [x * x] must be untouched (no [a] in scope). *)
  match e' with
  | Lam (_, Case (_, alts)) ->
      let false_rhs = (List.nth alts 1).alt_rhs in
      (match false_rhs with
      | Prim (Primop.Mul, _) -> ()
      | other ->
          Alcotest.failf "sibling branch corrupted: %a" Pretty.pp other)
  | e' -> Alcotest.failf "unexpected shape: %a" Pretty.pp e'

let distinct_expressions_untouched () =
  let e =
    B.lam "x" Types.int (fun x ->
        B.let_ "a" (B.mul x x) (fun a -> B.add a (B.mul x (B.int 2))))
  in
  match cse e with
  | Lam (_, Let (_, Prim (Primop.Add, [ Var _; Prim (Primop.Mul, _) ]))) -> ()
  | e' -> Alcotest.failf "unexpected shape: %a" Pretty.pp e'

let reduces_allocation () =
  (* Two identical constructor bindings: the second is shared away and
     its allocation disappears after simplification. *)
  let e =
    B.let_ "p" (B.just Types.int (B.int 1)) (fun p ->
        B.let_ "q" (B.just Types.int (B.int 1)) (fun q ->
            B.pair (B.maybe_ty Types.int) (B.maybe_ty Types.int) p q))
  in
  let e' = Simplify.simplify (Simplify.default_config ()) (Cse.run e) in
  let _, s = run e' in
  (* one Just (2 words) + one Pair (3 words) *)
  Alcotest.(check int) "one Just allocation" 5 s.Eval.words

(* The subterms CSE would key: applications, primops and constructors
   with arguments. *)
let candidates e =
  let acc = ref [] in
  let rec go e =
    (match e with
    | App _ | Prim _ | Con (_, _, _ :: _) -> acc := e :: !acc
    | _ -> ());
    match e with
    | Var _ | Lit _ -> ()
    | Con (_, _, es) | Prim (_, es) | Jump (_, _, es, _) -> List.iter go es
    | App (f, a) -> go f; go a
    | TyApp (f, _) | TyLam (_, f) | Lam (_, f) -> go f
    | Let (b, body) -> List.iter (fun (_, r) -> go r) (bind_pairs b); go body
    | Case (s, alts) -> go s; List.iter (fun a -> go a.alt_rhs) alts
    | Join (jb, body) -> List.iter (fun d -> go d.j_rhs) (join_defns jb); go body
  in
  go e;
  !acc

(* CSE keys candidates by [Syntax.compare_expr] instead of their
   printouts. Over every pair of candidates in each bench program, as
   elaborated and as the join-point pipeline leaves it, the order says
   "equal" exactly when the printouts are equal. *)
let key_is_print_equality () =
  let pairs = ref 0 and equal = ref 0 in
  List.iter
    (fun (pr : Bench_programs.program) ->
      let datacons, core = Bench_programs.compile pr in
      let out =
        Pipeline.run
          (Pipeline.default_config ~mode:Pipeline.Join_points ~datacons ())
          core
      in
      List.iter
        (fun e ->
          let keyed =
            Array.of_list
              (List.map (fun c -> (c, Pretty.to_string c)) (candidates e))
          in
          let n = Array.length keyed in
          for i = 0 to n - 1 do
            let a, sa = keyed.(i) in
            for j = i to n - 1 do
              let b, sb = keyed.(j) in
              let c = compare_expr a b in
              incr pairs;
              if c = 0 then incr equal;
              if (c = 0) <> String.equal sa sb then
                Alcotest.failf "%s: order says %d for@.%s@.vs@.%s"
                  pr.Bench_programs.name c sa sb;
              if compare (compare_expr b a) 0 <> - (compare c 0) then
                Alcotest.failf "%s: order not antisymmetric on@.%s@.vs@.%s"
                  pr.Bench_programs.name sa sb
            done
          done)
        [ core; out ])
    Bench_programs.all;
  Alcotest.(check bool) "some candidates repeat" true (!equal > 0);
  Alcotest.(check bool) "many pairs" true (!pairs > 10_000)

let tests =
  [
    test "the paper's f (g x) (g x)" f_gx_gx;
    test "shares primop computations" shares_primops;
    test "shares constructors" shares_constructors;
    test "no sharing across sibling branches" no_sharing_across_branches;
    test "distinct expressions untouched" distinct_expressions_untouched;
    test "sharing reduces allocation" reduces_allocation;
    test "keys are equal exactly when printouts are" key_is_print_equality;
  ]
