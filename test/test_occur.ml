(** Tests for the occurrence/tail-call analysis of Sec. 4 ("a
    free-variable analysis that also tracks whether each free variable
    has appeared only in the holes of tail contexts"), in the map form
    the reference contify keeps, and for {!Fj_core.Occur}'s binder
    census. *)

open Fj_core
open Syntax
open Util
module B = Builder

(* The map-based occurrence analysis of the reference contify
   ({!Contify_ref}): its tail-position rules are the ones Sec. 4
   states. *)
module Usage = Contify_ref.Occur

let info_of e (x : var) = Usage.lookup (Usage.of_expr e) x

let dead_and_once () =
  let x = mk_var "x" Types.int in
  let e = B.add (Var x) (B.int 1) in
  let i = info_of e x in
  Alcotest.(check int) "once" 1 i.count;
  let y = mk_var "y" Types.int in
  Alcotest.(check int) "dead" 0 (info_of e y).count

let counts_add_up () =
  let x = mk_var "x" Types.int in
  let e = B.add (Var x) (B.mul (Var x) (Var x)) in
  Alcotest.(check int) "three" 3 (info_of e x).count

let under_lambda_flag () =
  let x = mk_var "x" Types.int in
  let e = B.lam "y" Types.int (fun _ -> Var x) in
  let i = info_of e x in
  Alcotest.(check bool) "under lambda" true i.under_lam;
  Alcotest.(check bool) "not a tail call" false i.all_tail

let tail_call_direct () =
  (* f x — a saturated call in tail position. *)
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let e = App (Var f, B.int 1) in
  let i = info_of e f in
  Alcotest.(check bool) "tail" true i.all_tail;
  (match i.shape with
  | Some s ->
      Alcotest.(check int) "no ty args" 0 s.Usage.n_ty;
      Alcotest.(check int) "one val arg" 1 s.Usage.n_val
  | None -> Alcotest.fail "expected a shape")

let tail_through_case_branches () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let e =
    B.if_ B.true_ (App (Var f, B.int 1)) (App (Var f, B.int 2))
  in
  Alcotest.(check bool) "both branches tail" true (info_of e f).all_tail

let scrutinee_not_tail () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let e =
    B.case
      (App (Var f, B.int 1))
      [ B.alt_default (B.int 0) ]
  in
  Alcotest.(check bool) "scrutinee call is not tail" false
    (info_of e f).all_tail

let argument_not_tail () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let g = mk_var "g" (Types.Arrow (Types.int, Types.int)) in
  let e = App (Var g, App (Var f, B.int 1)) in
  Alcotest.(check bool) "argument call is not tail" false
    (info_of e f).all_tail;
  (* The head g IS a tail call. *)
  Alcotest.(check bool) "head is tail" true (info_of e g).all_tail

let let_body_is_tail () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let e = B.let_ "z" (B.int 1) (fun _ -> App (Var f, B.int 2)) in
  Alcotest.(check bool) "let body tail" true (info_of e f).all_tail

let let_rhs_not_tail () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let e = B.let_ "z" (App (Var f, B.int 1)) (fun z -> z) in
  Alcotest.(check bool) "let rhs not tail" false (info_of e f).all_tail

let inconsistent_arity_not_tail () =
  let f =
    mk_var "f" (Types.Arrow (Types.int, Types.Arrow (Types.int, Types.int)))
  in
  let e =
    B.if_ B.true_
      (App (Var f, B.int 1))
      (App (App (Var f, B.int 1), B.int 2))
  in
  Alcotest.(check bool) "mixed arity rejected" false (info_of e f).all_tail

let naked_use_not_call () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let e = B.if_ B.true_ (App (Var f, B.int 1)) (B.app (B.lam "g" (Types.Arrow (Types.int, Types.int)) (fun g -> B.app g (B.int 2))) (Var f)) in
  (* Second occurrence passes f as an argument (shape 0/0): shapes
     disagree, so not all-tail. *)
  Alcotest.(check bool) "escaping use blocks" false (info_of e f).all_tail

let join_rhs_is_tail_context () =
  let f = mk_var "f" (Types.Arrow (Types.int, Types.int)) in
  let e =
    B.join1 "j"
      [ ("x", Types.int) ]
      (fun _ -> App (Var f, B.int 1))
      (fun jmp -> jmp [ B.int 0 ] Types.int)
  in
  Alcotest.(check bool) "call in join rhs is tail" true (info_of e f).all_tail

(* ---------------- the binder census ---------------- *)

(* A naive reference for {!Occur.census}, read one binder at a time
   off its scope: the free occurrences of [x] in [e], and whether one
   sits under a [Lam], a [TyLam] or a recursive join's right-hand side
   inside [e]. Rebinding [x] shadows it, as in {!Syntax.occurs}. *)
let uses_in (x : var) (e : expr) =
  let n = ref 0 and lam = ref false in
  let is_x (y : var) = Ident.equal y.v_name x.v_name in
  let rec go under e =
    match e with
    | Var y ->
        if is_x y then begin
          incr n;
          if under then lam := true
        end
    | Lit _ -> ()
    | App (f, a) ->
        go under f;
        go under a
    | TyApp (f, _) -> go under f
    | Con (_, _, es) | Prim (_, es) -> List.iter (go under) es
    | Lam (y, b) -> if not (is_x y) then go true b
    | TyLam (_, b) -> go true b
    | Let ((NonRec (y, rhs) | Strict (y, rhs)), body) ->
        go under rhs;
        if not (is_x y) then go under body
    | Let (Rec pairs, body) ->
        if not (List.exists (fun (y, _) -> is_x y) pairs) then begin
          List.iter (fun (_, rhs) -> go under rhs) pairs;
          go under body
        end
    | Case (scrut, alts) ->
        go under scrut;
        List.iter
          (fun a ->
            if not (List.exists is_x (pat_binders a.alt_pat)) then
              go under a.alt_rhs)
          alts
    | Join (JNonRec d, body) ->
        if not (List.exists is_x d.j_params) then go under d.j_rhs;
        if not (is_x d.j_var) then go under body
    | Join (JRec ds, body) ->
        if not (List.exists (fun d -> is_x d.j_var) ds) then begin
          List.iter
            (fun d -> if not (List.exists is_x d.j_params) then go true d.j_rhs)
            ds;
          go under body
        end
    | Jump (j, _, es, _) ->
        if is_x j then begin
          incr n;
          if under then lam := true
        end;
        List.iter (go under) es
  in
  go false e;
  (!n, !lam)

(* Every term binder of [e], with its scope. A recursive join label's
   scope is the join's body alone, as the simplifier has always read
   it; a recursive join's parameters are in scope in their own
   right-hand side, which does not put them under a lambda. *)
let rec binder_scopes (e : expr) : (var * expr list) list =
  match e with
  | Var _ | Lit _ -> []
  | App (f, a) -> binder_scopes f @ binder_scopes a
  | TyApp (f, _) | TyLam (_, f) -> binder_scopes f
  | Con (_, _, es) | Prim (_, es) | Jump (_, _, es, _) ->
      List.concat_map binder_scopes es
  | Lam (x, b) -> (x, [ b ]) :: binder_scopes b
  | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
      ((x, [ body ]) :: binder_scopes rhs) @ binder_scopes body
  | Let (Rec pairs, body) ->
      let scope = List.map snd pairs @ [ body ] in
      List.map (fun (x, _) -> (x, scope)) pairs
      @ List.concat_map binder_scopes scope
  | Case (scrut, alts) ->
      binder_scopes scrut
      @ List.concat_map
          (fun a ->
            List.map (fun x -> (x, [ a.alt_rhs ])) (pat_binders a.alt_pat)
            @ binder_scopes a.alt_rhs)
          alts
  | Join (jb, body) ->
      let ds = join_defns jb in
      List.concat_map
        (fun d ->
          List.map (fun p -> (p, [ d.j_rhs ])) d.j_params
          @ binder_scopes d.j_rhs)
        ds
      @ List.map (fun d -> (d.j_var, [ body ])) ds
      @ binder_scopes body

(* The reference's use of binder [x] over its scope. *)
let reference_use (x, scope) : Occur.use =
  List.fold_left
    (fun (u : Occur.use) part ->
      let n, lam = uses_in x part in
      { count = u.count + n; under_lam = u.under_lam || lam })
    { count = 0; under_lam = false }
    scope

(* The census of [e] gives every binder the reference's use; returns
   how many binders it compared. *)
let census_agrees what e =
  let c = Occur.census e in
  let bs = binder_scopes e in
  let ids =
    List.sort_uniq compare (List.map (fun ((x : var), _) -> x.v_name.id) bs)
  in
  if List.length ids <> List.length bs then
    Alcotest.failf "%s: a unique is bound twice" what;
  List.iter
    (fun (((x : var), _) as b) ->
      let want = reference_use b in
      match Occur.use c x with
      | Some got when got = want -> ()
      | Some got ->
          Alcotest.failf "%s: %a: census (%d, %b), reference (%d, %b)" what
            Ident.pp x.v_name got.count got.under_lam want.count
            want.under_lam
      | None -> Alcotest.failf "%s: %a has no census" what Ident.pp x.v_name)
    bs;
  List.length bs

let find_binder name e =
  let named ((x : var), _) = x.v_name.name = name in
  match List.find_opt named (binder_scopes e) with
  | Some b -> b
  | None -> Alcotest.failf "no binder %s" name

let binder_info_recorded () =
  let e =
    B.let_ "x" (B.int 1) (fun x -> B.add x x)
  in
  (* Exactly one binder, recorded with two occurrences. *)
  let bs = binder_scopes e in
  Alcotest.(check int) "one binder" 1 (List.length bs);
  let x, _ = List.hd bs in
  match Occur.use (Occur.census e) x with
  | Some u -> Alcotest.(check int) "two occurrences" 2 u.count
  | None -> Alcotest.fail "binder not recorded"

let once_safely () =
  let e = B.let_ "x" (B.int 1) (fun x -> B.add x (B.int 2)) in
  let x, scope = find_binder "x" e in
  Alcotest.(check bool) "once safe" true
    (Usage.occurs_once_safely (Usage.of_expr (List.hd scope)) x);
  match Occur.use (Occur.census e) x with
  | Some u -> Alcotest.(check bool) "census: once, not under a lambda" true
                (u.count = 1 && not u.under_lam)
  | None -> Alcotest.fail "binder not recorded"

let recursive_join_shape_tracked () =
  (* join rec go (x) = if x == 0 then 0 else jump go (x - 1)
     in jump go (10)
     Every use of [go] (body and its own rhs) is a shape-(0,1) jump:
     the analysis of each reads that shape for the group's binder. *)
  let e =
    B.joinrec1 "go"
      [ ("x", Types.int) ]
      (fun jmp args ->
        match args with
        | [ x ] ->
            B.if_ (B.eq x (B.int 0)) (B.int 0)
              (jmp [ B.sub x (B.int 1) ] Types.int)
        | _ -> assert false)
      (fun jmp -> jmp [ B.int 10 ] Types.int)
  in
  let go_var, rhs, body =
    match e with
    | Join (JRec [ d ], body) -> (d.j_var, d.j_rhs, body)
    | _ -> Alcotest.fail "expected one recursive join"
  in
  List.iter
    (fun (where, scope) ->
      let go = Usage.lookup (Usage.of_expr scope) go_var in
      Alcotest.(check bool) (where ^ ": all tail") true go.Usage.all_tail;
      match go.Usage.shape with
      | Some s ->
          Alcotest.(check int) (where ^ ": no ty args") 0 s.Usage.n_ty;
          Alcotest.(check int) (where ^ ": one val arg") 1 s.Usage.n_val
      | None -> Alcotest.failf "%s: expected a consistent shape" where)
    [ ("body", body); ("rhs", rhs) ]

let under_lambda_escape_recorded () =
  (* let f = \y. y + 1 in \z. f z — the only use of [f] is under the
     lambda: the census records the escape (under_lam), and the
     analysis of its scope says it is therefore not all-tail, which is
     what the contifier's Escapes_under_lambda refusal quotes. *)
  let e =
    B.let_ "f"
      (B.lam "y" Types.int (fun y -> B.add y (B.int 1)))
      (fun f -> B.lam "z" Types.int (fun z -> B.app f z))
  in
  let f, scope = find_binder "f" e in
  let fi =
    match Occur.use (Occur.census e) f with
    | Some u -> u
    | None -> Alcotest.fail "binder not recorded"
  in
  Alcotest.(check int) "one occurrence" 1 fi.count;
  Alcotest.(check bool) "under a lambda" true fi.under_lam;
  Alcotest.(check bool) "not a tail call" false
    (Usage.lookup (Usage.of_expr (List.hd scope)) f).all_tail

let rec_join_rhs_marks_work_dup () =
  (* An outer binding used inside a recursive join's rhs runs once per
     jump: its recorded use must say under_lam (work duplication), but
     tail-ness is preserved so the OUTER binding can still contify. *)
  let e =
    B.let_ "k"
      (B.lam "w" Types.int (fun w -> B.add w (B.int 7)))
      (fun k ->
        B.joinrec1 "go"
          [ ("x", Types.int) ]
          (fun jmp args ->
            match args with
            | [ x ] ->
                B.if_ (B.eq x (B.int 0)) (B.app k (B.int 0))
                  (jmp [ B.sub x (B.int 1) ] Types.int)
            | _ -> assert false)
          (fun jmp -> jmp [ B.int 3 ] Types.int))
  in
  let k, scope = find_binder "k" e in
  let ki =
    match Occur.use (Occur.census e) k with
    | Some u -> u
    | None -> Alcotest.fail "binder not recorded"
  in
  Alcotest.(check bool) "work-dup flagged" true ki.under_lam;
  Alcotest.(check bool) "tail-ness preserved" true
    (Usage.lookup (Usage.of_expr (List.hd scope)) k).all_tail

(* Every simplifier pass input of a compile, and what four more
   simplifier iterations make of each, caught through the pipeline's
   pass hook. *)
let simplifier_inputs cfg e =
  let inputs = ref [] in
  let cache =
    {
      Pipeline.cache_lookup =
        (fun ~pass ~supply:_ ~input ->
          if String.length pass >= 8 && String.sub pass 0 8 = "simplify" then
            inputs := input :: !inputs;
          None);
      cache_store = (fun ~pass:_ ~supply:_ ~input:_ _ -> ());
    }
  in
  ignore (Pipeline.run { cfg with Pipeline.cache = Some cache } e);
  let scfg =
    Simplify.default_config
      ~join_points:(cfg.Pipeline.mode = Pipeline.Join_points)
      ~case_of_case:(cfg.mode <> Pipeline.No_cc) ~datacons:cfg.datacons ()
  in
  List.concat_map
    (fun e ->
      let rec iterate n e =
        if n = 0 then [ e ]
        else e :: iterate (n - 1) (Simplify.simplify ~max_iters:1 scfg e)
      in
      iterate 4 e)
    (List.rev !inputs)

let modes = [ Pipeline.Join_points; Pipeline.Baseline; Pipeline.No_cc ]

(* Terms that reach what the compiled programs rarely do: a use under
   a type lambda and no value lambda, a use in a recursive join's
   right-hand side, a recursive let's own use, a lambda's own
   binder. *)
let hand_built () =
  [
    ( "under a type lambda",
      B.let_ "x" (B.int 1) (fun x -> B.tyapp (B.tlam "a" (fun _ -> x)) Types.int)
    );
    ( "in a recursive join's rhs",
      B.let_ "k" (B.int 7) (fun k ->
          B.joinrec1 "go"
            [ ("x", Types.int) ]
            (fun jmp args ->
              match args with
              | [ x ] ->
                  B.if_ (B.eq x (B.int 0)) k
                    (jmp [ B.sub x (B.int 1) ] Types.int)
              | _ -> assert false)
            (fun jmp -> jmp [ k ] Types.int)) );
    ( "a recursive let",
      B.letrec1 "f" (Types.Arrow (Types.int, Types.int))
        (fun f ->
          B.lam "n" Types.int (fun n ->
              B.if_ (B.eq n (B.int 0)) (B.int 0) (B.app f (B.sub n (B.int 1)))))
        (fun f -> B.app f (B.int 3)) );
    ( "a lambda's own binder",
      B.lam "y" Types.int (fun y -> B.let_ "z" y (fun z -> B.add z z)) );
  ]

(* The census against the reference on what the simplifier reads: the
   corpus, the examples and Gen seeds under all three modes, each
   program built under the supply its compile uses (as the service
   and the fuzzer do, so no unique repeats), and the hand-built
   terms. *)
let census_matches_reference () =
  let compared = ref 0 in
  List.iter
    (fun (name, e) -> compared := !compared + census_agrees name e)
    (hand_built ());
  let sweep what build =
    List.iter
      (fun mode ->
        Context.with_fresh (fun () ->
            let datacons, e = build () in
            let cfg = Pipeline.default_config ~mode ~datacons () in
            List.iteri
              (fun i e ->
                let what =
                  Fmt.str "%s %s #%d" what (Pipeline.mode_name mode) i
                in
                compared := !compared + census_agrees what e)
              (simplifier_inputs cfg e)))
      modes
  in
  List.iter
    (fun (name, src) -> sweep name (fun () -> Fj_surface.Prelude.compile src))
    (nofib () @ repo_files "examples/programs" ".fj");
  for seed = 1 to 200 do
    sweep (Fmt.str "seed %d" seed) (fun () ->
        (Datacon.builtins, Gen.program_of_seed seed))
  done;
  if !compared < 50_000 then
    Alcotest.failf "only %d binders compared" !compared

let tests =
  [
    test "dead and once" dead_and_once;
    test "counts add up" counts_add_up;
    test "under-lambda flag" under_lambda_flag;
    test "direct tail call" tail_call_direct;
    test "tail through case branches" tail_through_case_branches;
    test "scrutinee is not tail" scrutinee_not_tail;
    test "argument is not tail, head is" argument_not_tail;
    test "let body is tail" let_body_is_tail;
    test "let rhs is not tail" let_rhs_not_tail;
    test "inconsistent arities rejected" inconsistent_arity_not_tail;
    test "escaping use blocks tail-ness" naked_use_not_call;
    test "join rhs is a tail context" join_rhs_is_tail_context;
    test "binder info is recorded" binder_info_recorded;
    test "occurs-once-safely" once_safely;
    test "recursive join group shape is tracked" recursive_join_shape_tracked;
    test "under-lambda escape is recorded" under_lambda_escape_recorded;
    test "recursive join rhs marks work duplication" rec_join_rhs_marks_work_dup;
    test "census matches a naive reference" census_matches_reference;
  ]
