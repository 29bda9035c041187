(** Tests for {!Fj_core.Lint} — the type system of Fig. 2, with
    particular attention to where the join environment Δ is reset
    (Sec. 3). Each negative test is a program the paper's rules must
    reject; each positive one exercises a subtlety the paper calls out
    as legal. *)

open Fj_core
open Syntax
open Util
module B = Builder

let mk_jump jv phis args ty = Jump (jv, phis, args, ty)

(* A lint message names binders by unique, so a case that checks one
   builds its term under a fresh supply. *)
let fresh f () = Context.with_fresh f

(* join j x = x + 1 in jump j 41 Int — the basic well-typed join. *)
let basic_join () =
  let e =
    B.join1 "j"
      [ ("x", Types.int) ]
      (fun xs -> B.add (List.hd xs) (B.int 1))
      (fun jmp -> jmp [ B.int 41 ] Types.int)
  in
  Alcotest.check ty_testable "type" Types.int (lints e)

(* The paper's "Gotcha!" example: a join point whose rhs type differs
   from the body type must be rejected.
   join j = "Gotcha!" in if b then jump j Int else 4 *)
let gotcha_rejected () =
  let jv = mk_join_var "j" [] [] in
  let defn = { j_var = jv; j_tyvars = []; j_params = []; j_rhs = B.str "Gotcha!" } in
  let e =
    Join
      ( JNonRec defn,
        B.if_ B.true_ (mk_jump jv [] [] Types.int) (B.int 4) )
  in
  fails_lint
    ~message:"join point j_2 rhs has type String but the body has type Int" e

(* jump in a function ARGUMENT is rejected: Δ is reset there.
   join j x = x in f (jump j True Bool) *)
let jump_in_argument_rejected () =
  let jv = mk_join_var "j" [] [ mk_var "x" Types.bool ] in
  let defn =
    {
      j_var = jv;
      j_tyvars = [];
      j_params = [ mk_var "x" Types.bool ];
      j_rhs = B.true_;
    }
  in
  let e =
    B.lam "f" (Types.Arrow (Types.bool, Types.bool)) (fun f ->
        Join (JNonRec defn, App (f, mk_jump jv [] [ B.true_ ] Types.bool)))
  in
  fails_lint ~message:"jump to unbound label j_3" e

(* jump under a lambda is rejected: Δ is reset in lambda bodies. This
   is exactly what outlaws the callcc encoding (Sec. 9). *)
let jump_under_lambda_rejected () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn = { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = Var x } in
  let e =
    Join
      ( JNonRec defn,
        B.lam "y" Types.int (fun y -> mk_jump jv [] [ y ] Types.int) )
  in
  fails_lint ~message:"jump to unbound label j_3" e

(* jump in a case SCRUTINEE is fine: the scrutinee is an evaluation
   context and Δ flows into it. *)
let jump_in_scrutinee_ok () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn = { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = Var x } in
  let e =
    Join
      ( JNonRec defn,
        Case
          ( mk_jump jv [] [ B.int 1 ] Types.int,
            [ { alt_pat = PDefault; alt_rhs = B.int 0 } ] ) )
  in
  Alcotest.check ty_testable "type" Types.int (lints e)

(* The Sec. 3 example: jumps may appear in the FUNCTION part of an
   application (Δ is not reset there), with the claimed result type
   adjusted — "(jump j True C2C) 'x'" style. *)
let jump_in_function_position_ok () =
  let c2c = Types.Arrow (Types.char, Types.char) in
  let x = mk_var "x" Types.bool in
  let jv = mk_join_var "j" [] [ x ] in
  let defn =
    {
      j_var = jv;
      j_tyvars = [];
      j_params = [ x ];
      j_rhs = App (B.lam "c" Types.char (fun c -> c), B.char 'x');
    }
  in
  let e =
    Join
      ( JNonRec defn,
        B.case B.true_
          [
            B.alt_con "True" [] [] (fun _ ->
                App (mk_jump jv [] [ B.true_ ] c2c, B.char 'x'));
            B.alt_con "False" [] [] (fun _ ->
                App (B.lam "c" Types.char (fun c -> c), B.char 'x'));
          ] )
  in
  Alcotest.check ty_testable "type" Types.char (lints e)

(* A join rhs is a tail context: it may jump to an OUTER join point. *)
let join_rhs_jumps_outer_ok () =
  let x1 = mk_var "x" Types.int in
  let outer = mk_join_var "out" [] [ x1 ] in
  let outer_defn =
    { j_var = outer; j_tyvars = []; j_params = [ x1 ]; j_rhs = Var x1 }
  in
  let x2 = mk_var "y" Types.int in
  let inner = mk_join_var "in" [] [ x2 ] in
  let inner_defn =
    {
      j_var = inner;
      j_tyvars = [];
      j_params = [ x2 ];
      j_rhs = mk_jump outer [] [ Var x2 ] Types.int;
    }
  in
  let e =
    Join
      ( JNonRec outer_defn,
        Join (JNonRec inner_defn, mk_jump inner [] [ B.int 7 ] Types.int) )
  in
  Alcotest.check ty_testable "type" Types.int (lints e)

(* A non-recursive join's rhs must NOT see its own label. *)
let nonrec_join_self_jump_rejected () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn =
    {
      j_var = jv;
      j_tyvars = [];
      j_params = [ x ];
      j_rhs = mk_jump jv [] [ Var x ] Types.int;
    }
  in
  let e = Join (JNonRec defn, mk_jump jv [] [ B.int 1 ] Types.int) in
  fails_lint ~message:"jump to unbound label j_3" e

(* Recursive joins may self-jump. *)
let rec_join_ok () =
  let e =
    B.joinrec1 "loop"
      [ ("n", Types.int) ]
      (fun jmp xs ->
        let n = List.hd xs in
        B.if_ (B.le n (B.int 0)) (B.int 0) (jmp [ B.sub n (B.int 1) ] Types.int))
      (fun jmp -> jmp [ B.int 3 ] Types.int)
  in
  Alcotest.check ty_testable "type" Types.int (lints e);
  result_is "0" e

(* Wrong argument type at a jump. *)
let jump_arg_type_mismatch () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn = { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = Var x } in
  let e = Join (JNonRec defn, mk_jump jv [] [ B.true_ ] Types.int) in
  fails_lint ~message:"jump to j_3: argument has type Bool, wants Int" e

(* Wrong arity at a jump (join points are polyadic; no partial
   application). *)
let jump_arity_mismatch () =
  let x = mk_var "x" Types.int in
  let y = mk_var "y" Types.int in
  let jv = mk_join_var "j" [] [ x; y ] in
  let defn =
    { j_var = jv; j_tyvars = []; j_params = [ x; y ]; j_rhs = B.add (Var x) (Var y) }
  in
  let e = Join (JNonRec defn, mk_jump jv [] [ B.int 1 ] Types.int) in
  fails_lint ~message:"jump to j_4: 1 arguments, expects 2" e

(* Polymorphic join points: join j @a (x:a) = x in jump j @Int 5 Int —
   but note the rhs must still match the body type, so instantiate at a
   fixed body type. *)
let polymorphic_join () =
  let a = Ident.fresh "a" in
  let x = mk_var "x" (Types.Var a) in
  (* rhs must have the BODY's type, which cannot mention a; so the rhs
     ignores x and returns an Int. *)
  let jv = mk_join_var "j" [ a ] [ x ] in
  let defn =
    { j_var = jv; j_tyvars = [ a ]; j_params = [ x ]; j_rhs = B.int 7 }
  in
  let e =
    Join (JNonRec defn, mk_jump jv [ Types.bool ] [ B.true_ ] Types.int)
  in
  Alcotest.check ty_testable "type" Types.int (lints e);
  result_is "7" e

(* A join type parameter may not escape into the result type. *)
let join_tyvar_escape_rejected () =
  let a = Ident.fresh "a" in
  let x = mk_var "x" (Types.Var a) in
  let jv = mk_join_var "j" [ a ] [ x ] in
  let defn =
    { j_var = jv; j_tyvars = [ a ]; j_params = [ x ]; j_rhs = Var x }
  in
  let e =
    Join (JNonRec defn, mk_jump jv [ Types.int ] [ B.int 1 ] Types.int)
  in
  fails_lint
    ~message:"join point j_4 rhs has type a_1 but the body has type Int" e

(* A join type parameter that is the very binder of an enclosing type
   lambda, [/\a. \(x:a). join j @a = x in x]: the right-hand side and
   the body agree on [a], so only the escape check refuses it. *)
let join_tyvar_escapes_into_body () =
  let a = Ident.fresh "a" in
  let x = mk_var "x" (Types.Var a) in
  let jv = mk_join_var "j" [ a ] [] in
  let defn = { j_var = jv; j_tyvars = [ a ]; j_params = []; j_rhs = Var x } in
  fails_lint ~message:"join point j_4: type parameter a_1 escapes into a_1"
    (TyLam (a, Lam (x, Join (JNonRec defn, Var x))))

(* A join point name used as a first-class value is rejected. *)
let join_as_value_rejected () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn = { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = Var x } in
  let e = Join (JNonRec defn, Var jv) in
  fails_lint ~message:"join point j_3 used as a first-class value" e;
  (* Nor may a join binder carry a value type. *)
  let j = mk_var "j" Types.int in
  fails_lint
    ~message:"join binder j_5 has type Int, should be Int -> (forall r_6. r_6)"
    (Join
       ( JNonRec { defn with j_var = j },
         mk_jump j [] [ B.int 0 ] Types.int ))

(* Scope: a jump outside the join's body is unbound. *)
let jump_out_of_scope_rejected () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  fails_lint ~message:"jump to unbound label j_3"
    (mk_jump jv [] [ B.int 1 ] Types.int)

(* Ordinary typing still works: unbound vars, bad cases, etc. *)
let unbound_var_rejected () =
  fails_lint ~message:"variable ghost_1 not in scope"
    (Var (mk_var "ghost" Types.int))

let case_alt_types_must_agree () =
  let e =
    B.case B.true_
      [
        B.alt_con "True" [] [] (fun _ -> B.int 1);
        B.alt_con "False" [] [] (fun _ -> B.str "no");
      ]
  in
  fails_lint ~message:"case alternatives have different types Int and String" e

let case_pattern_wrong_tycon () =
  let e =
    B.case (B.int 1 |> fun i -> B.just Types.int i)
      [ B.alt_con "True" [] [] (fun _ -> B.int 1) ]
  in
  fails_lint
    ~message:"constructor pattern True cannot match scrutinee type Maybe Int" e

let constructor_arity_checked () =
  let dc = Datacon.builtin "Just" in
  fails_lint ~message:"constructor Just: 0 arguments, expects 1"
    (Con (dc, [ Types.int ], []))

let jump_may_claim_any_type () =
  (* The same join jumped to at two different claimed types (contexts
     of different types) — legal, both discard their context. *)
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn = { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = Var x } in
  let scrut = mk_jump jv [] [ B.int 1 ] Types.bool in
  let e =
    Join
      ( JNonRec defn,
        Case
          ( scrut,
            [
              { alt_pat = PCon (Datacon.builtin "True", []); alt_rhs = B.int 0 };
              { alt_pat = PDefault; alt_rhs = mk_jump jv [] [ B.int 2 ] Types.int };
            ] ) )
  in
  Alcotest.check ty_testable "type" Types.int (lints e)

(* A binder's scope ends with its body: the same variable used after
   its lambda, its let or its case alternative is out of scope. *)
let scope_ends () =
  let x = mk_var "x" Types.int in
  fails_lint ~message:"variable x_1 not in scope"
    (B.add (App (Lam (x, Var x), B.int 1)) (Var x));
  let y = mk_var "y" Types.int in
  fails_lint ~message:"variable y_2 not in scope"
    (B.add (Let (NonRec (y, B.int 1), Var y)) (Var y));
  let z = mk_var "z" Types.int in
  fails_lint ~message:"variable z_3 not in scope"
    (B.add
       (B.case (B.just Types.int (B.int 1))
          [
            { alt_pat = PCon (Datacon.builtin "Just", [ z ]); alt_rhs = Var z };
            B.alt_default (B.int 0);
          ])
       (Var z))

(* Lint draws uniques ([Types.subst] refreshes the binders of the
   types it instantiates, [check_join_var] builds a fresh [forall r.
   r]), and every later draw of the compile follows them, so how many
   it draws is part of every artifact's bytes. *)
let uniques_drawn () =
  let src = List.assoc "spectral-norm" (nofib ()) in
  Context.with_fresh (fun () ->
      let datacons, core = Fj_surface.Prelude.compile src in
      let before = Ident.counter_value () in
      ignore (lints ~env:datacons core);
      Alcotest.(check int) "uniques drawn" 9 (Ident.counter_value () - before))

let tests =
  [
    test "basic join lints" basic_join;
    test "Gotcha! example rejected" (fresh gotcha_rejected);
    test "jump in argument rejected (Delta reset)"
      (fresh jump_in_argument_rejected);
    test "jump under lambda rejected (Delta reset)"
      (fresh jump_under_lambda_rejected);
    test "jump in scrutinee ok (evaluation context)" jump_in_scrutinee_ok;
    test "jump in function position ok (Sec. 3)" jump_in_function_position_ok;
    test "join rhs may jump to outer join" join_rhs_jumps_outer_ok;
    test "non-recursive self-jump rejected"
      (fresh nonrec_join_self_jump_rejected);
    test "recursive join ok and runs" rec_join_ok;
    test "jump argument type mismatch" (fresh jump_arg_type_mismatch);
    test "jump arity mismatch (polyadic)" (fresh jump_arity_mismatch);
    test "polymorphic join point" polymorphic_join;
    test "join tyvar escape rejected" (fresh join_tyvar_escape_rejected);
    test "join point as value rejected" (fresh join_as_value_rejected);
    test "jump out of scope rejected" (fresh jump_out_of_scope_rejected);
    test "unbound variable rejected" (fresh unbound_var_rejected);
    test "case alternative types must agree"
      (fresh case_alt_types_must_agree);
    test "case pattern tycon mismatch" (fresh case_pattern_wrong_tycon);
    test "constructor arity checked" (fresh constructor_arity_checked);
    test "jump claims arbitrary types" jump_may_claim_any_type;
    test "linting a polymorphic program draws a fixed count of uniques"
      uniques_drawn;
    test "a binder's scope ends with its body" (fresh scope_ends);
    test "join tyvar escaping into the body rejected"
      (fresh join_tyvar_escapes_into_body);
  ]
