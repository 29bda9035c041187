(** Tests for {!Fj_core.Float_in} and {!Fj_core.Float_out}, including
    the paper's requirements that the floating passes not destroy join
    points (Sec. 7), and the staged Moby derivation of Sec. 4. *)

open Fj_core
open Syntax
open Util
module B = Builder

let float_in e =
  let _ = lints e in
  let e' = Float_in.run e in
  let _ = lints e' in
  same_result e e';
  e'

let float_out e =
  let _ = lints e in
  let e' = Float_out.run e in
  let _ = lints e' in
  same_result e e';
  e'

(* let x = rhs in case s of {A -> ..x..; B -> no-x} sinks x into the A
   branch. *)
let sink_into_branch () =
  let e =
    B.let_ "x"
      (B.add (B.int 1) (B.int 2))
      (fun x ->
        B.if_ B.true_ (B.add x (B.int 1)) (B.int 0))
  in
  match float_in e with
  | Case (_, alts) ->
      let lets_in_branches =
        List.length
          (List.filter
             (fun a -> match a.alt_rhs with Let _ -> true | _ -> false)
             alts)
      in
      Alcotest.(check int) "binding sank into one branch" 1 lets_in_branches
  | e' -> Alcotest.failf "expected a case at top, got %a" Pretty.pp e'

(* The Moby first step (Sec. 4): let f = rhs in case (f y) of alts
   becomes case (let f = rhs in f y) of alts, which contify can then
   turn into a join. *)
let moby_staging () =
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f ->
        B.case (App (f, B.int 1))
          [ B.alt_default (B.int 0) ])
  in
  let e1 = float_in e in
  (match e1 with
  | Case (Let _, _) -> ()
  | _ -> Alcotest.failf "expected case-of-let, got %a" Pretty.pp e1);
  (* Now contification applies inside the scrutinee. *)
  let e2 = Contify.contify e1 in
  let rec has_join = function
    | Join _ -> true
    | Case (s, alts) ->
        has_join s || List.exists (fun a -> has_join a.alt_rhs) alts
    | Let (NonRec (_, r), b) -> has_join r || has_join b
    | _ -> false
  in
  Alcotest.(check bool) "contified after float-in" true (has_join e2);
  let _ = lints e2 in
  same_result e e2

(* Float In does not sink a binding used in several branches. *)
let no_sink_when_shared () =
  let e =
    B.let_ "x"
      (B.add (B.int 1) (B.int 2))
      (fun x -> B.if_ B.true_ x x)
  in
  match float_in e with
  | Let _ -> ()
  | e' -> Alcotest.failf "shared binding must stay put: %a" Pretty.pp e'

(* Float In never pushes into (or past) a join right-hand side. *)
let no_sink_into_join_rhs () =
  let e =
    B.let_ "x"
      (B.add (B.int 1) (B.int 2))
      (fun x ->
        B.join1 "j"
          [ ("y", Types.int) ]
          (fun ys -> B.add (List.hd ys) x)
          (fun jmp -> jmp [ B.int 1 ] Types.int))
  in
  match float_in e with
  | Let (NonRec _, Join _) -> ()
  | e' -> Alcotest.failf "binding must stay outside the join: %a" Pretty.pp e'

(* Float Out moves a closed binding out of a lambda. *)
let float_out_of_lambda () =
  let e =
    B.lam "x" Types.int (fun x ->
        B.let_ "k" (B.add (B.int 1) (B.int 2)) (fun k -> B.add x k))
  in
  match float_out e with
  | Let (NonRec _, Lam _) -> ()
  | e' -> Alcotest.failf "expected let outside lambda, got %a" Pretty.pp e'

(* Float Out must NOT move a binding that mentions the lambda's binder. *)
let float_out_respects_scope () =
  let e =
    B.lam "x" Types.int (fun x ->
        B.let_ "k" (B.add x (B.int 2)) (fun k -> B.add k k))
  in
  match float_out e with
  | Lam _ -> ()
  | e' -> Alcotest.failf "dependent binding must stay, got %a" Pretty.pp e'

(* Sec. 7: Float Out leaves join bindings alone (moving them would
   destroy the join point). *)
let float_out_keeps_joins () =
  let e =
    B.lam "x" Types.int (fun x ->
        B.join1 "j" []
          (fun _ -> B.int 5)
          (fun jmp ->
            B.if_ (B.gt x (B.int 0)) (jmp [] Types.int) (B.int 0)))
  in
  match float_out e with
  | Lam (_, Join _) -> ()
  | e' -> Alcotest.failf "join binding must not move, got %a" Pretty.pp e'

(* Float In sinks through App arguments. *)
let sink_into_argument () =
  let e =
    B.let_ "x"
      (B.add (B.int 1) (B.int 2))
      (fun x ->
        B.app (B.lam "y" Types.int (fun y -> y)) (B.add x (B.int 1)))
  in
  match float_in e with
  | App (_, Let _) -> ()
  | e' -> Alcotest.failf "expected let in argument, got %a" Pretty.pp e'

(* A binding is never pushed under a lambda, whose body may run many
   times: neither at the top nor once the let has sunk into a call's
   head. *)
let no_sink_under_lambda () =
  let rhs () = B.add (B.int 1) (B.int 2) in
  let top =
    B.let_ "x" (rhs ()) (fun x -> B.lam "y" Types.int (fun y -> B.add x y))
  in
  (match float_in top with
  | Let (NonRec _, Lam _) -> ()
  | e' -> Alcotest.failf "the let moved: %a" Pretty.pp e');
  let call =
    B.let_ "x" (rhs ()) (fun x ->
        App (B.lam "y" Types.int (fun y -> B.add x y), B.int 5))
  in
  match float_in call with
  | App (Let (NonRec _, Lam _), _) -> ()
  | e' -> Alcotest.failf "expected the let above the lambda: %a" Pretty.pp e'

let tests =
  [
    test "sink into single branch" sink_into_branch;
    test "Moby staging: float-in then contify (Sec. 4)" moby_staging;
    test "no sink when shared" no_sink_when_shared;
    test "no sink into join rhs" no_sink_into_join_rhs;
    test "float out of lambda" float_out_of_lambda;
    test "float out respects scope" float_out_respects_scope;
    test "float out leaves join bindings (Sec. 7)" float_out_keeps_joins;
    test "sink into application argument" sink_into_argument;
    test "no sink under a lambda" no_sink_under_lambda;
  ]
