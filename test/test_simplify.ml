(** Tests for {!Fj_core.Simplify} — the GHC-style simplifier: the
    worked examples of Sec. 2 and 5 must come out exactly as the paper
    shows, and every simplification must preserve Lint and meaning. *)

open Fj_core
open Syntax
open Util
module B = Builder

let cfg = Simplify.default_config ()
let cfg_baseline = Simplify.default_config ~join_points:false ()

let simp ?(c = cfg) e =
  let _ = lints e in
  let e' = Simplify.simplify c e in
  let _ = lints e' in
  same_result e e';
  e'

let count_allocs e = Eval.run_deep e

(* The null = isNothing . mHead cascade (Sec. 2): after inlining and
   case-of-case, no Maybe constructor survives. *)
let null_cascade () =
  let ilist = B.list_ty Types.int in
  let mhead =
    B.lam "as" ilist (fun asv ->
        B.case asv
          [
            B.alt_con "Nil" [ Types.int ] [] (fun _ -> B.nothing Types.int);
            B.alt_con "Cons" [ Types.int ] [ "p"; "ps" ] (fun bs ->
                B.just Types.int (List.hd bs));
          ])
  in
  let is_nothing x =
    B.case x
      [
        B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.true_);
        B.alt_con "Just" [ Types.int ] [ "z" ] (fun _ -> B.false_);
      ]
  in
  let null = B.lam "as" ilist (fun asv -> is_nothing (B.app mhead asv)) in
  let e' = simp null in
  (* The simplified function must contain no Maybe constructors. *)
  let rec mentions_maybe = function
    | Con (dc, _, es) ->
        String.equal dc.tycon "Maybe" || List.exists mentions_maybe es
    | Prim (_, es) -> List.exists mentions_maybe es
    | App (f, a) -> mentions_maybe f || mentions_maybe a
    | TyApp (f, _) -> mentions_maybe f
    | Lam (_, b) | TyLam (_, b) -> mentions_maybe b
    | Let ((NonRec (_, r) | Strict (_, r)), b) -> mentions_maybe r || mentions_maybe b
    | Let (Rec ps, b) ->
        List.exists (fun (_, r) -> mentions_maybe r) ps || mentions_maybe b
    | Case (s, alts) ->
        mentions_maybe s || List.exists (fun a -> mentions_maybe a.alt_rhs) alts
    | Join (jb, b) ->
        List.exists (fun d -> mentions_maybe d.j_rhs) (join_defns jb)
        || mentions_maybe b
    | Jump (_, _, es, _) -> List.exists mentions_maybe es
    | Var _ | Lit _ -> false
  in
  Alcotest.(check bool) "Maybe constructors fused away" false
    (mentions_maybe e');
  (* And it behaves like null. *)
  same_result (B.app e' (B.int_list [])) B.true_;
  same_result (B.app e' (B.int_list [ 1 ])) B.false_

(* Constant folding. *)
let constant_folding () =
  let e = B.add (B.mul (B.int 6) (B.int 7)) (B.int 0) in
  match simp e with
  | Lit (Literal.Int 42) -> ()
  | e' -> Alcotest.failf "expected 42, got %a" Pretty.pp e'

let dead_code_dropped () =
  let e = B.let_ "dead" (B.int 1) (fun _ -> B.int 2) in
  match simp e with
  | Lit (Literal.Int 2) -> ()
  | e' -> Alcotest.failf "expected 2, got %a" Pretty.pp e'

let beta_and_inline () =
  let e =
    B.app
      (B.lam "f" (Types.Arrow (Types.int, Types.int)) (fun f ->
           B.app f (B.int 20)))
      (B.lam "x" Types.int (fun x -> B.add x (B.int 22)))
  in
  match simp e with
  | Lit (Literal.Int 42) -> ()
  | e' -> Alcotest.failf "expected 42, got %a" Pretty.pp e'

(* Sec. 2 key example: case-of-case over a join point keeps the join
   point a join point and moves the outer case into its rhs. *)
let preserves_join_points () =
  let big xs = B.gt (List.hd xs) (B.int 0) in
  let inner =
    B.join1 "j" [ ("x", Types.int) ] big (fun jmp ->
        B.case (B.int 1)
          [
            B.alt_lit (Literal.Int 1) (jmp [ B.int 1 ] Types.bool);
            B.alt_lit (Literal.Int 2) (jmp [ B.int 2 ] Types.bool);
            B.alt_default B.true_;
          ])
  in
  let nots =
    [
      B.alt_con "True" [] [] (fun _ -> B.false_);
      B.alt_con "False" [] [] (fun _ -> B.true_);
    ]
  in
  let e = Case (inner, nots) in
  let e' = simp e in
  (* The result must still run without allocation: the join survived or
     was fully reduced. *)
  let _, stats = count_allocs e' in
  Alcotest.(check int) "no allocation" 0 stats.Eval.words

(* The baseline, by contrast, allocates for the same program: its
   shared alternatives become let-bound functions. We use an opaque
   scrutinee so the case cannot be resolved statically. *)
let baseline_allocates () =
  (* Small thresholds so BIG is "too big to inline or duplicate" for
     both configurations, as in the paper's motivating example. *)
  let cfg =
    Simplify.default_config ~inline_threshold:5 ~dup_threshold:5 ()
  in
  let cfg_baseline =
    Simplify.default_config ~join_points:false ~inline_threshold:5
      ~dup_threshold:5 ()
  in
  let mk scrut_var =
    let big x =
      List.fold_left B.add x (List.init 10 (fun i -> B.int i)) |> fun s ->
      B.gt s (B.int 0)
    in
    (* let j x = BIG in case v of {T -> j 1; F -> j 2} — pre-join-point
       style, under an outer case. *)
    let inner =
      B.let_ "j"
        (B.lam "x" Types.int (fun x -> big x))
        (fun j ->
          B.case scrut_var
            [
              B.alt_con "True" [] [] (fun _ -> App (j, B.int 1));
              B.alt_con "False" [] [] (fun _ -> App (j, B.int 2));
            ])
    in
    let nots =
      [
        B.alt_con "True" [] [] (fun _ -> B.false_);
        B.alt_con "False" [] [] (fun _ -> B.true_);
      ]
    in
    Case (inner, nots)
  in
  let wrap body = B.lam "v" Types.bool (fun v -> body v) in
  let with_joins =
    Simplify.simplify cfg (fst (Contify.contify (wrap (fun v -> mk v))))
  in
  let base = Simplify.simplify cfg_baseline (wrap (fun v -> mk v)) in
  let _ = lints with_joins in
  let _ = lints base in
  let _, sj = count_allocs (B.app with_joins B.true_) in
  let _, sb = count_allocs (B.app base B.true_) in
  same_result (B.app with_joins B.true_) (B.app base B.true_);
  Alcotest.(check bool)
    (Fmt.str "join-point compiler allocates less (%d < %d)" sj.Eval.words
       sb.Eval.words)
    true
    (sj.Eval.words < sb.Eval.words)

(* Known-constructor through a let binding (unfolding splice). *)
let known_con_through_let () =
  let e =
    B.let_ "m" (B.just Types.int (B.int 5)) (fun m ->
        B.case m
          [
            B.alt_con "Just" [ Types.int ] [ "x" ] (fun xs -> List.hd xs);
            B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.int 0);
          ])
  in
  match simp e with
  | Lit (Literal.Int 5) -> ()
  | e' -> Alcotest.failf "expected 5, got %a" Pretty.pp e'

(* The Sec. 5 find/any fusion, end to end. *)
let find_any_fusion () =
  let ilist = B.list_ty Types.int in
  let imaybe = B.maybe_ty Types.int in
  let find =
    B.lam "p" (Types.Arrow (Types.int, Types.bool)) (fun p ->
        B.lam "xs0" ilist (fun xs0 ->
            B.letrec1 "go" (Types.Arrow (ilist, imaybe))
              (fun go ->
                B.lam "xs" ilist (fun xs ->
                    B.case xs
                      [
                        B.alt_con "Cons" [ Types.int ] [ "x"; "rest" ]
                          (fun bs ->
                            match bs with
                            | [ x; rest ] ->
                                B.if_ (B.app p x) (B.just Types.int x)
                                  (B.app go rest)
                            | _ -> assert false);
                        B.alt_con "Nil" [ Types.int ] [] (fun _ ->
                            B.nothing Types.int);
                      ]))
              (fun go -> B.app go xs0)))
  in
  let any =
    B.let_ "find" find (fun find ->
        B.lam "p" (Types.Arrow (Types.int, Types.bool)) (fun p ->
            B.lam "xs" ilist (fun xs ->
                B.case (B.app2 find p xs)
                  [
                    B.alt_con "Just" [ Types.int ] [ "y" ] (fun _ -> B.true_);
                    B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.false_);
                  ])))
  in
  (* Optimise the fully-applied program: must allocate only the list
     cells (3 words per cons), nothing per element beyond it. *)
  let applied0 =
    B.app2 any
      (B.lam "x" Types.int (fun x -> B.gt x (B.int 2)))
      (B.int_list [ 1; 2; 3; 4 ])
  in
  let applied = Simplify.simplify cfg (fst (Contify.contify applied0)) in
  let _ = lints applied in
  same_result applied0 applied;
  let t, s = count_allocs applied in
  Alcotest.(check string) "found" "True" (Fmt.str "%a" Eval.pp_tree t);
  (* 4 cons cells = 12 words; no Maybe, no closures. *)
  Alcotest.(check int) "only the list allocates" 12 s.Eval.words

(* Case-of-case with big alternatives shares them via join points
   rather than duplicating (code growth bounded). *)
let big_alts_shared () =
  let big x = List.init 12 (fun i -> B.int i) |> List.fold_left B.add x in
  let inner v =
    B.case v
      [
        B.alt_con "True" [] [] (fun _ -> B.just Types.int (B.int 1));
        B.alt_con "False" [] [] (fun _ -> B.nothing Types.int);
      ]
  in
  let e v =
    B.case (inner v)
      [
        B.alt_con "Just" [ Types.int ] [ "x" ] (fun xs -> big (List.hd xs));
        B.alt_con "Nothing" [ Types.int ] [] (fun _ -> big (B.int 0));
      ]
  in
  let f = B.lam "v" Types.bool (fun v -> e v) in
  let f' = simp f in
  (* Size must not have doubled the big alternatives. *)
  Alcotest.(check bool)
    (Fmt.str "size bounded (%d vs %d)" (size f') (2 * size f))
    true
    (size f' <= 2 * size f)

let literal_case_folds () =
  let e =
    B.case
      (B.add (B.int 1) (B.int 1))
      [
        B.alt_lit (Literal.Int 2) (B.int 100);
        B.alt_default (B.int 0);
      ]
  in
  match simp e with
  | Lit (Literal.Int 100) -> ()
  | e' -> Alcotest.failf "expected 100, got %a" Pretty.pp e'

(* No-commuting-conversions config leaves case-of-case alone. *)
let no_cc_config () =
  let c = Simplify.default_config ~case_of_case:false () in
  let inner v =
    B.case v
      [
        B.alt_con "True" [] [] (fun _ -> B.just Types.int (B.int 1));
        B.alt_con "False" [] [] (fun _ -> B.nothing Types.int);
      ]
  in
  let f =
    B.lam "v" Types.bool (fun v ->
        B.case (inner v)
          [
            B.alt_con "Just" [ Types.int ] [ "x" ] (fun xs -> List.hd xs);
            B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.int 0);
          ])
  in
  let f' = simp ~c f in
  (* The nested case survives. *)
  let rec nested_case = function
    | Lam (_, b) -> nested_case b
    | Case (Case _, _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "case-of-case kept" true (nested_case f')

let tests =
  [
    test "null cascade (Sec. 2)" null_cascade;
    test "constant folding" constant_folding;
    test "dead code dropped" dead_code_dropped;
    test "beta + inlining" beta_and_inline;
    test "join points preserved through case-of-case" preserves_join_points;
    test "baseline allocates where joins do not" baseline_allocates;
    test "known constructor through let" known_con_through_let;
    test "find/any fusion (Sec. 5)" find_any_fusion;
    test "big alternatives shared, not duplicated" big_alts_shared;
    test "literal case folds" literal_case_folds;
    test "case-of-case can be disabled" no_cc_config;
  ]
