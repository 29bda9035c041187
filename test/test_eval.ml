(** Tests for {!Fj_core.Eval} — the Fig. 3 abstract machine: basic
    reduction, laziness/sharing, the jump rule (context discarding),
    and the allocation accounting the benchmarks rely on. *)

open Fj_core
open Syntax
open Util
module B = Builder

let diverge ty =
  (* letrec bad = bad in bad *)
  let x = mk_var "bad" ty in
  Let (Rec [ (x, Var x) ], Var x)

let arith () =
  result_is "9" (B.add (B.mul (B.int 2) (B.int 3)) (B.int 3));
  result_is "-4" (B.sub (B.int 3) (B.int 7));
  result_is "2" (B.div_ (B.int 7) (B.int 3));
  result_is "1" (B.mod_ (B.int 7) (B.int 3))

let comparisons () =
  result_is "True" (B.lt (B.int 1) (B.int 2));
  result_is "False" (B.eq (B.int 1) (B.int 2));
  result_is "True" (B.ge (B.int 2) (B.int 2))

let beta () =
  result_is "42"
    (B.app (B.lam "x" Types.int (fun x -> B.add x (B.int 1))) (B.int 41))

let case_selects () =
  let e =
    B.case (B.just Types.int (B.int 5))
      [
        B.alt_con "Nothing" [ Types.int ] [] (fun _ -> B.int 0);
        B.alt_con "Just" [ Types.int ] [ "x" ] (fun xs -> List.hd xs);
      ]
  in
  result_is "5" e

let case_default () =
  let e =
    B.case (B.int 3)
      [
        B.alt_lit (Literal.Int 1) (B.int 10);
        B.alt_lit (Literal.Int 2) (B.int 20);
        B.alt_default (B.int 99);
      ]
  in
  result_is "99" e

let lazy_let_unused () =
  (* An unused diverging binding must not be forced. *)
  result_is "42" (B.let_ "boom" (diverge Types.int) (fun _ -> B.int 42))

let lazy_argument_unused () =
  result_is "7"
    (B.app (B.lam "x" Types.int (fun _ -> B.int 7)) (diverge Types.int))

let lazy_constructor_fields () =
  (* head of a list whose tail field diverges. *)
  let e =
    B.case
      (B.cons Types.int (B.int 1) (diverge (B.list_ty Types.int)))
      [
        B.alt_con "Cons" [ Types.int ] [ "h"; "t" ] (fun xs -> List.hd xs);
        B.alt_con "Nil" [ Types.int ] [] (fun _ -> B.int 0);
      ]
  in
  result_is "1" e

let sharing_by_need () =
  (* let x = <expensive> in x + x: by-need forces once, by-name twice. *)
  let expensive =
    B.app
      (B.lam "n" Types.int (fun n -> B.mul n (B.mul n n)))
      (B.add (B.int 2) (B.int 3))
  in
  let e = B.let_ "x" expensive (fun x -> B.add x x) in
  let _, s_need = Eval.eval ~mode:Eval.By_need e in
  let _, s_name = Eval.eval ~mode:Eval.By_name e in
  Alcotest.(check bool) "by-name repeats work" true
    (s_name.Eval.steps > s_need.Eval.steps)

let blackhole_detected () =
  match Eval.eval (diverge Types.int) with
  | exception Eval.Stuck _ -> ()
  | _ -> Alcotest.fail "expected a blackhole"

let fuel_exhaustion () =
  let loop =
    B.joinrec1 "spin" []
      (fun jmp _ -> jmp [] Types.int)
      (fun jmp -> jmp [] Types.int)
  in
  match Eval.eval ~fuel:1000 loop with
  | exception Eval.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* The machine example of Sec. 3: the jump pops the application and
   case frames.
   join j x = x in case (jump j 2 (Int -> Bool)) 3 of ... ==> 2 *)
let jump_discards_context () =
  let x = mk_var "x" Types.int in
  let jv = mk_join_var "j" [] [ x ] in
  let defn = { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = Var x } in
  let scrut =
    App
      ( Jump (jv, [], [ B.int 2 ], Types.Arrow (Types.int, Types.bool)),
        B.int 3 )
  in
  let e =
    Join
      (JNonRec defn, Case (scrut, [ { alt_pat = PDefault; alt_rhs = B.int 99 } ]))
  in
  let _ = lints e in
  result_is "2" e

let joins_do_not_allocate () =
  let e =
    B.joinrec1 "loop"
      [ ("n", Types.int); ("acc", Types.int) ]
      (fun jmp xs ->
        match xs with
        | [ n; acc ] ->
            B.if_ (B.le n (B.int 0)) acc
              (jmp [ B.sub n (B.int 1); B.add acc n ] Types.int)
        | _ -> assert false)
      (fun jmp -> jmp [ B.int 100; B.int 0 ] Types.int)
  in
  let t, s = run e in
  Alcotest.(check string) "sum" "5050" (Fmt.str "%a" Eval.pp_tree t);
  Alcotest.(check int) "zero allocation" 0 s.Eval.words;
  Alcotest.(check bool) "jumps happened" true (s.Eval.jumps > 100)

let allocation_accounting () =
  (* Cons 1 Nil: one 3-word object (Nil is static). *)
  let _, s = run (B.int_list [ 1 ]) in
  Alcotest.(check int) "one object" 1 s.Eval.objects;
  Alcotest.(check int) "three words" 3 s.Eval.words;
  (* A let-bound lambda allocates one closure. *)
  let _, s2 =
    run
      (B.let_ "f" (B.lam "x" Types.int (fun x -> x)) (fun f ->
           B.app f (B.int 1)))
  in
  Alcotest.(check int) "one closure" 1 s2.Eval.objects;
  (* Nullary constructors are free. *)
  let _, s3 = run B.true_ in
  Alcotest.(check int) "static constructor" 0 s3.Eval.objects;
  let counts name e ~value ~objects ~words ~calls =
    let t, s = run e in
    Alcotest.(check string)
      (name ^ ": value") value
      (Fmt.str "%a" Eval.pp_tree t);
    Alcotest.(check int) (name ^ ": objects") objects s.Eval.objects;
    Alcotest.(check int) (name ^ ": words") words s.Eval.words;
    Alcotest.(check int) (name ^ ": calls") calls s.Eval.calls
  in
  (* A partial application allocates a 2-word PAP (after [f]'s closure
     and [g]'s thunk); calling it binds the remaining argument. *)
  let add2 =
    B.lam "x" Types.int (fun x -> B.lam "y" Types.int (fun y -> B.add x y))
  in
  counts "partial application"
    (B.let_ "f" add2 (fun f ->
         B.let_ "g" (B.app f (B.int 1)) (fun g -> B.app g (B.int 2))))
    ~value:"3" ~objects:3 ~words:6 ~calls:2;
  (* An over-saturated call passes its leftover argument to the closure
     the body returns. *)
  let add1 =
    B.lam "x" Types.int (fun x ->
        B.let_ "k" (B.lam "y" Types.int (fun y -> B.add x y)) (fun k -> k))
  in
  counts "over-saturated call"
    (B.let_ "f" add1 (fun f -> B.app2 f (B.int 1) (B.int 2)))
    ~value:"3" ~objects:2 ~words:4 ~calls:2;
  (* Speculation is bounded: a right-hand side nesting 8 primops binds
     its value, one nesting 9 allocates a 2-word thunk. *)
  let rec nest k = if k = 0 then B.int 1 else B.add (B.int 1) (nest (k - 1)) in
  counts "8 primops speculate"
    (B.let_ "x" (nest 8) (fun x -> x))
    ~value:"9" ~objects:0 ~words:0 ~calls:0;
  counts "9 primops allocate a thunk"
    (B.let_ "x" (nest 9) (fun x -> x))
    ~value:"10" ~objects:1 ~words:2 ~calls:0

let deep_observation () =
  let e = B.int_list [ 1; 2; 3 ] in
  let t, _ = run e in
  Alcotest.(check string) "rendered"
    "(Cons 1 (Cons 2 (Cons 3 Nil)))"
    (Fmt.str "%a" Eval.pp_tree t)

let letrec_closures () =
  (* Mutual recursion through the heap: even/odd. *)
  let ebool = Types.Arrow (Types.int, Types.bool) in
  let ev = mk_var "even" ebool and od = mk_var "odd" ebool in
  let body f = B.app (Var f) (B.int 10) in
  let e =
    Let
      ( Rec
          [
            ( ev,
              B.lam "n" Types.int (fun n ->
                  B.if_ (B.eq n (B.int 0)) B.true_
                    (App (Var od, B.sub n (B.int 1)))) );
            ( od,
              B.lam "n" Types.int (fun n ->
                  B.if_ (B.eq n (B.int 0)) B.false_
                    (App (Var ev, B.sub n (B.int 1)))) );
          ],
        body ev )
  in
  let _ = lints e in
  result_is "True" e

(* Each round of a recursive join conses a suspended [f i]: the thunks
   outlive the activation that built them, so each must keep its own
   round's [i] (an environment updated in place would hand every thunk
   the last one). *)
let join_thunks_keep_their_parameters () =
  let ilist = B.list_ty Types.int in
  let sum acc =
    B.joinrec1 "sum"
      [ ("xs", ilist); ("s", Types.int) ]
      (fun sum -> function
        | [ xs; s ] ->
            B.case xs
              [
                B.alt_con "Nil" [ Types.int ] [] (fun _ -> s);
                B.alt_con "Cons" [ Types.int ] [ "h"; "t" ] (function
                  | [ h; t ] -> sum [ t; B.add s h ] Types.int
                  | _ -> assert false);
              ]
        | _ -> assert false)
      (fun sum -> sum [ acc; B.int 0 ] Types.int)
  in
  let e =
    B.let_ "f" (B.lam "n" Types.int (fun n -> B.mul n (B.int 10))) (fun f ->
        B.joinrec1 "loop"
          [ ("i", Types.int); ("acc", ilist) ]
          (fun loop -> function
            | [ i; acc ] ->
                B.case i
                  [
                    B.alt_lit (Literal.Int 0) (sum acc);
                    B.alt_default
                      (loop
                         [ B.sub i (B.int 1); B.cons Types.int (B.app f i) acc ]
                         Types.int);
                  ]
            | _ -> assert false)
          (fun loop -> loop [ B.int 5; B.nil Types.int ] Types.int))
  in
  let _ = lints e in
  let t, s = run e in
  Alcotest.(check string) "10 + 20 + 30 + 40 + 50" "150"
    (Fmt.str "%a" Eval.pp_tree t);
  Alcotest.(check int) "five suspended calls, forced once each" 5 s.Eval.calls;
  Alcotest.(check int) "words" 37 s.Eval.words

(* Every primop over a literal grid, four ways: the Fig. 3 machine's
   speculation (literal arguments), its frame path (each argument
   behind a [case], which does not speculate), [Primop.fold] and the
   block machine. Each gives the fold's value, or crashes exactly where
   the fold is stuck. *)
let primop_differential () =
  let ints = [ min_int; -7; -1; 0; 1; 2; 7; 255; 256; max_int ] in
  let grid ty =
    if Types.equal ty Types.int then List.map (fun n -> Literal.Int n) ints
    else if Types.equal ty Types.char then
      List.map (fun c -> Literal.Char c) [ '\000'; 'a'; 'b'; '\255' ]
    else List.map (fun s -> Literal.String s) [ ""; "ab" ]
  in
  let rec product = function
    | [] -> [ [] ]
    | ty :: tys ->
        let rest = product tys in
        List.concat_map (fun l -> List.map (List.cons l) rest) (grid ty)
  in
  let eval e =
    match Eval.run_outcome ~fuel:1_000 e with
    | Eval.Finished (t, _) -> Some t
    | Eval.Crashed _ -> None
    | Eval.Fuel_exhausted -> Alcotest.fail "a primop ran out of fuel"
  in
  let machine e =
    let module M = Fj_machine.Bmachine in
    match M.run ~fuel:1_000 (Fj_machine.Lower.lower_program e) with
    | v, _ -> Some (M.tree_of_value v)
    | exception M.Stuck _ -> None
  in
  let folded op lits =
    match Primop.fold op lits with
    | Lit l -> Some (Eval.TLit l)
    | Bool b -> Some (Eval.TCon ((if b then "True" else "False"), []))
    | Stuck -> None
  in
  let show = function
    | Some t -> Fmt.str "%a" Eval.pp_tree t
    | None -> "stuck"
  in
  let behind_case l =
    Case (Lit l, [ { alt_pat = PDefault; alt_rhs = Lit l } ])
  in
  List.iter
    (fun op ->
      List.iter
        (fun lits ->
          let want = folded op lits in
          let direct = Prim (op, List.map (fun l -> Lit l) lits) in
          List.iter
            (fun (how, got) ->
              if not (Option.equal Eval.equal_tree want got) then
                Alcotest.failf "%s %a: fold gives %s, %s %s" (Primop.name op)
                  Fmt.(list ~sep:sp Literal.pp)
                  lits (show want) how (show got))
            [
              ("speculated", eval direct);
              ("framed", eval (Prim (op, List.map behind_case lits)));
              ("block machine", machine direct);
            ])
        (product (fst (Primop.signature op))))
    Primop.all;
  (* The grid holds each stuck case, and OCaml's [min_int / -1]. *)
  List.iter
    (fun (op, lits, want) ->
      Alcotest.(check string)
        (Fmt.str "%s %a" (Primop.name op) Fmt.(list ~sep:sp Literal.pp) lits)
        want
        (show (folded op lits)))
    Literal.
      [
        (Primop.Div, [ Int 7; Int 0 ], "stuck");
        (Mod, [ Int 7; Int 0 ], "stuck");
        (Chr, [ Int (-1) ], "stuck");
        (Chr, [ Int 256 ], "stuck");
        (StrIdx, [ String "ab"; Int 2 ], "stuck");
        (StrIdx, [ String "ab"; Int (-1) ], "stuck");
        (StrIdx, [ String ""; Int 0 ], "stuck");
        (Div, [ Int min_int; Int (-1) ], string_of_int min_int);
        (Mod, [ Int min_int; Int (-1) ], "0");
      ]

(* What a step allocates on the OCaml heap beyond the objects the
   machine counts: over the corpus's [Join_points] outputs, translation,
   run and observation together stay under 12 minor words per machine
   step (9.2 when written). Primops that fold through argument lists
   exceed it (15.5), and so does re-boxing each evaluated operand as a
   cell as well (20.5). *)
let allocation_per_step () =
  let words = ref 0. and steps = ref 0 in
  List.iter
    (fun (_, src) ->
      Context.with_fresh (fun () ->
          let datacons, e = Fj_surface.Prelude.compile src in
          let cfg =
            Pipeline.default_config ~mode:Pipeline.Join_points ~datacons ()
          in
          let out = Pipeline.run cfg e in
          let before = Gc.minor_words () in
          let _, s = run out in
          words := !words +. (Gc.minor_words () -. before);
          steps := !steps + s.Eval.steps))
    (nofib ());
  let per_step = !words /. float_of_int !steps in
  if per_step > 12. then
    Alcotest.failf "%.2f minor words per step (%.0f words, %d steps)" per_step
      !words !steps

let tests =
  [
    test "arithmetic" arith;
    test "comparisons" comparisons;
    test "beta reduction" beta;
    test "case selects alternative" case_selects;
    test "case default fallback" case_default;
    test "unused let is lazy" lazy_let_unused;
    test "unused argument is lazy" lazy_argument_unused;
    test "constructor fields are lazy" lazy_constructor_fields;
    test "by-need shares, by-name repeats" sharing_by_need;
    test "blackhole detection" blackhole_detected;
    test "fuel exhaustion" fuel_exhaustion;
    test "jump discards its context (Sec. 3 example)" jump_discards_context;
    test "join/jump allocate nothing" joins_do_not_allocate;
    test "allocation accounting" allocation_accounting;
    test "deep observation" deep_observation;
    test "recursive closures (even/odd)" letrec_closures;
    test "join thunks keep their own parameters"
      join_thunks_keep_their_parameters;
    test "primops agree: speculated, framed, folded, block machine"
      primop_differential;
    test "a machine step allocates under 12 words" allocation_per_step;
  ]
