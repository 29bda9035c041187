(** Unit tests for {!Fj_core.Syntax} and {!Fj_core.Subst}: free
    variables, sizes, and capture-avoiding substitution over terms. *)

open Fj_core
open Syntax
open Util
module B = Builder

let free_vars_lambda () =
  let free = mk_var "free" Types.int in
  let e = B.lam "x" Types.int (fun x -> B.add x (Var free)) in
  let fvs = free_vars e in
  Alcotest.(check int) "one free var" 1 (Ident.Set.cardinal fvs);
  Alcotest.(check bool) "it is the free one" true
    (Ident.Set.mem free.v_name fvs)

let free_vars_join () =
  (* Labels are tracked as free variables of jumps. *)
  let jv = mk_join_var "j" [] [ mk_var "x" Types.int ] in
  let jump = Jump (jv, [], [ B.int 1 ], Types.int) in
  Alcotest.(check bool) "jump's label is free" true
    (Ident.Set.mem jv.v_name (free_vars jump));
  (* ... and bound by the enclosing join. *)
  let e =
    B.join1 "j"
      [ ("x", Types.int) ]
      (fun xs -> List.hd xs)
      (fun jmp -> jmp [ B.int 1 ] Types.int)
  in
  Alcotest.(check int) "closed join binding" 0
    (Ident.Set.cardinal (free_vars e))

let free_vars_case_binders () =
  let e =
    B.case (B.just Types.int (B.int 1))
      [
        B.alt_con "Just" [ Types.int ] [ "y" ] (fun ys -> List.hd ys);
        B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.int 0);
      ]
  in
  Alcotest.(check int) "pattern binders are bound" 0
    (Ident.Set.cardinal (free_vars e))

let free_vars_letrec () =
  let e =
    B.letrec1 "f"
      (Types.Arrow (Types.int, Types.int))
      (fun f -> B.lam "n" Types.int (fun n -> B.app f n))
      (fun f -> B.app f (B.int 3))
  in
  Alcotest.(check int) "recursive binder not free" 0
    (Ident.Set.cardinal (free_vars e))

let size_counts () =
  let e = B.add (B.int 1) (B.int 2) in
  Alcotest.(check int) "prim + two literals" 3 (size e)

let trivial_things () =
  Alcotest.(check bool) "literal trivial" true (is_trivial (B.int 1));
  Alcotest.(check bool) "nullary con trivial" true (is_trivial B.true_);
  Alcotest.(check bool) "app not trivial" false
    (is_trivial (B.add (B.int 1) (B.int 2)))

let whnf_things () =
  Alcotest.(check bool) "lam is whnf" true
    (is_whnf (B.lam "x" Types.int (fun x -> x)));
  Alcotest.(check bool) "con is whnf" true (is_whnf (B.just Types.int (B.int 1)));
  Alcotest.(check bool) "case is not whnf" false
    (is_whnf (B.if_ B.true_ (B.int 1) (B.int 2)))

let ty_of_spine () =
  let f =
    B.lam "x" Types.int (fun x -> B.lam "y" Types.bool (fun _ -> x))
  in
  Alcotest.check ty_testable "application type" Types.bool
    (ty_of
       (App
          ( App
              ( B.lam "x" Types.int (fun _ ->
                    B.lam "y" Types.bool (fun y -> y)),
                B.int 1 ),
            B.true_ )));
  Alcotest.check ty_testable "lambda type"
    (Types.Arrow (Types.int, Types.Arrow (Types.bool, Types.int)))
    (ty_of f)

let subst_single () =
  let x = mk_var "x" Types.int in
  let body = B.add (Var x) (Var x) in
  let e = Subst.beta_reduce x (B.int 21) body in
  result_is "42" e

let subst_avoids_capture () =
  (* (\y. x + y){y-expr/x} where the substituted expression mentions a
     DIFFERENT y: uniques make capture impossible by construction, but
     freshening must also rename the binder. *)
  let x = mk_var "x" Types.int in
  let outer_y = mk_var "y" Types.int in
  let inner = B.lam "y" Types.int (fun y -> B.add (Var x) y) in
  let e = Subst.expr (Subst.add_term x.v_name (Var outer_y) Subst.empty) inner in
  match e with
  | Lam (y', Prim (_, [ Var vx; Var vy ])) ->
      Alcotest.(check bool) "x became outer y" true
        (Ident.equal vx.v_name outer_y.v_name);
      Alcotest.(check bool) "binder occurrence follows clone" true
        (Ident.equal vy.v_name y'.v_name);
      Alcotest.(check bool) "binder was renamed apart from outer y" false
        (Ident.equal y'.v_name outer_y.v_name)
  | _ -> Alcotest.failf "unexpected shape: %a" Pretty.pp e

let freshen_is_alpha_copy () =
  let e =
    B.let_ "x" (B.int 1) (fun x ->
        B.lam "y" Types.int (fun y -> B.add x y))
  in
  let e' = Subst.freshen e in
  (* Same meaning... *)
  same_result (App (e, B.int 2)) (App (e', B.int 2));
  (* ...but disjoint binders. *)
  let binders expr =
    let rec go acc = function
      | Lam (x, b) -> go (x.v_name :: acc) b
      | Let (NonRec (x, rhs), b) -> go (go (x.v_name :: acc) rhs) b
      | Prim (_, es) -> List.fold_left go acc es
      | _ -> acc
    in
    go [] expr
  in
  let b1 = binders e and b2 = binders e' in
  List.iter
    (fun i1 ->
      List.iter
        (fun i2 ->
          Alcotest.(check bool) "no shared binder" false (Ident.equal i1 i2))
        b2)
    b1

let jump_label_subst () =
  (* Substitution must rename jump targets when the join binder is
     cloned. *)
  let e =
    B.join1 "j"
      [ ("x", Types.int) ]
      (fun xs -> B.add (List.hd xs) (B.int 1))
      (fun jmp -> jmp [ B.int 41 ] Types.int)
  in
  let e' = Subst.freshen e in
  let _ = lints e' in
  same_result e e'

let collect_args_spine () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.Arrow (Types.int, Types.int))) in
  let e = B.app2 (Var f) (B.int 1) (B.int 2) in
  let head, args = collect_args e in
  (match head with
  | Var v -> Alcotest.(check bool) "head is f" true (var_equal v f)
  | _ -> Alcotest.fail "wrong head");
  Alcotest.(check int) "two args" 2 (List.length args)

(* Every subterm of [e], [e] included. *)
let subterms e =
  let acc = ref [] in
  let rec go e =
    acc := e :: !acc;
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

(* Every term-level binder of [e], labels and parameters included. *)
let binders e =
  let names = List.map (fun (x : var) -> x.v_name) in
  List.concat_map
    (function
      | Lam (x, _) -> [ x.v_name ]
      | Let (b, _) -> names (binders_of_bind b)
      | Case (_, alts) ->
          List.concat_map (fun a -> names (pat_binders a.alt_pat)) alts
      | Join (jb, _) ->
          List.concat_map (fun d -> names (d.j_var :: d.j_params)) (join_defns jb)
      | _ -> [])
    (subterms e)

(* [occurs] and [occurrences] against the set-building [free_vars] and
   [Occur]'s count, on one term and one name. *)
let agrees x e =
  let expected = Ident.Set.mem x (free_vars e) in
  if occurs x e <> expected then
    Alcotest.failf "occurs %a = %b, free_vars says %b in@.%a" Ident.pp x
      (not expected) expected Pretty.pp e;
  let count =
    (Occur.lookup (Occur.of_expr e) { v_name = x; v_ty = Types.int }).count
  in
  Alcotest.(check int) "occurrences = Occur count" count
    (occurrences ~upto:max_int x e);
  Alcotest.(check int) "occurrences stops at upto" (min count 2)
    (occurrences ~upto:2 x e)

(* For every binder and free name of 500 generated programs, on every
   subterm: [occurs] is [free_vars] membership. *)
let occurs_is_free_vars_membership () =
  let st = Random.State.make [| 13 |] in
  for _ = 1 to 500 do
    let e = Gen.program st in
    let names =
      List.sort_uniq Ident.compare (binders e @ Ident.Set.elements (free_vars e))
    in
    List.iter (fun s -> List.iter (fun x -> agrees x s) names) (subterms e)
  done

(* One shadowing case per binder form: [x] bound by the form is not
   free below it, but still free where the form does not scope. *)
let occurs_respects_shadowing () =
  let x = mk_var "x" Types.int and y = mk_var "y" Types.int in
  let vx = Var x and zero = B.int 0 in
  let defn ?(params = []) j rhs =
    { j_var = j; j_tyvars = []; j_params = params; j_rhs = rhs }
  in
  let jump j = Jump (j, [], [], Types.int) in
  let just = Datacon.builtin "Just" in
  let cases =
    [
      ("lambda", Lam (x, vx), false);
      ("let body", Let (NonRec (x, zero), vx), false);
      ("let rhs is outside", Let (NonRec (x, vx), zero), true);
      ("strict body", Let (Strict (x, zero), vx), false);
      ("strict rhs is outside", Let (Strict (x, vx), zero), true);
      ("rec rhs and body", Let (Rec [ (x, vx) ], vx), false);
      ( "case pattern",
        Case (Var y, [ { alt_pat = PCon (just, [ x ]); alt_rhs = vx } ]),
        false );
      ( "case pattern scopes one alternative",
        Case
          ( Var y,
            [
              { alt_pat = PCon (just, [ x ]); alt_rhs = vx };
              { alt_pat = PDefault; alt_rhs = vx };
            ] ),
        true );
      ( "case scrutinee is outside",
        Case (vx, [ { alt_pat = PCon (just, [ x ]); alt_rhs = vx } ]),
        true );
      ("join parameter", Join (JNonRec (defn ~params:[ x ] y vx), zero), false);
      ("join label in body", Join (JNonRec (defn x zero), jump x), false);
      ("join label not in own rhs", Join (JNonRec (defn x (jump x)), zero), true);
      ("recursive join label", Join (JRec [ defn x (jump x) ], jump x), false);
    ]
  in
  List.iter
    (fun (name, e, expected) ->
      Alcotest.(check bool) name expected (occurs x.v_name e);
      agrees x.v_name e)
    cases

let tests =
  [
    test "free vars under lambda" free_vars_lambda;
    test "free vars of jumps and joins" free_vars_join;
    test "case binders are bound" free_vars_case_binders;
    test "letrec binder not free" free_vars_letrec;
    test "size counts nodes" size_counts;
    test "trivial expressions" trivial_things;
    test "whnf expressions" whnf_things;
    test "ty_of computes types" ty_of_spine;
    test "substitution evaluates" subst_single;
    test "substitution avoids capture" subst_avoids_capture;
    test "freshen is an alpha copy" freshen_is_alpha_copy;
    test "freshen renames jump labels" jump_label_subst;
    test "collect_args decomposes spines" collect_args_spine;
    test "occurs is free_vars membership" occurs_is_free_vars_membership;
    test "occurs respects shadowing" occurs_respects_shadowing;
  ]
