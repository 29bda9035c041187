(** Tests for {!Fj_core.Pretty} — the Core-dump printer. The notation
    must match the paper's ([join ... in], [jump j args @\[ty\]]), stay
    parseable by humans, and parenthesise correctly. *)

open Fj_core
open Syntax
open Util
module B = Builder

let show e = Pretty.to_string e

let prints_join_and_jump () =
  let e =
    B.join1 "j"
      [ ("x", Types.int) ]
      (fun xs -> B.add (List.hd xs) (B.int 1))
      (fun jmp -> jmp [ B.int 41 ] Types.int)
  in
  let s = show e in
  Alcotest.(check bool) "has join keyword" true (contains s "join j");
  Alcotest.(check bool) "has jump keyword" true (contains s "jump j");
  Alcotest.(check bool) "prints jump result type" true (contains s "@[Int]")

let prints_rec_joins () =
  let e =
    B.joinrec1 "loop"
      [ ("n", Types.int) ]
      (fun jmp xs ->
        B.if_ (B.le (List.hd xs) (B.int 0)) (B.int 0)
          (jmp [ B.sub (List.hd xs) (B.int 1) ] Types.int))
      (fun jmp -> jmp [ B.int 3 ] Types.int)
  in
  Alcotest.(check bool) "marks recursion" true (contains (show e) "join rec")

let prints_strict_lets () =
  let x = mk_var "x" Types.int in
  let e = Let (Strict (x, B.add (B.int 1) (B.int 2)), Var x) in
  Alcotest.(check bool) "bang marks strict binding" true
    (contains (show e) "!(x_")

let prints_types_on_binders () =
  let e = B.lam "x" (B.list_ty Types.int) (fun x -> x) in
  Alcotest.(check bool) "binder type" true (contains (show e) ": List Int")

let parenthesises_nested_apps () =
  let f = mk_var "f" (Types.arrows [ Types.int; Types.int ] Types.int) in
  let e = B.app2 (Var f) (B.add (B.int 1) (B.int 2)) (B.int 3) in
  Alcotest.(check bool) "argument parenthesised" true
    (contains (show e) "(+# 1 2)")

let prints_type_applications () =
  let e = B.nil Types.int in
  Alcotest.(check bool) "type argument" true (contains (show e) "Nil @Int");
  let e2 = B.cons Types.int (B.int 1) (B.nil Types.int) in
  Alcotest.(check bool) "saturated constructor" true
    (contains (show e2) "Cons @Int 1")

let prints_case_layout () =
  let e =
    B.case B.true_
      [
        B.alt_con "True" [] [] (fun _ -> B.int 1);
        B.alt_con "False" [] [] (fun _ -> B.int 2);
        B.alt_default (B.int 3);
      ]
  in
  let s = show e in
  Alcotest.(check bool) "case keyword" true (contains s "case True of");
  Alcotest.(check bool) "default is underscore" true (contains s "_ ->")

let prints_literals () =
  Alcotest.(check bool) "chars" true (contains (show (B.char 'a')) "'a'");
  Alcotest.(check bool) "strings" true
    (contains (show (B.str "hi")) "\"hi\"");
  Alcotest.(check bool) "negative ints" true (contains (show (B.int (-3))) "-3")

let stable_under_freshen () =
  (* Printing must remain well-formed after alpha-copying (binder
     numbers change, structure does not). *)
  let e =
    B.let_ "x" (B.int 1) (fun x -> B.lam "y" Types.int (fun y -> B.add x y))
  in
  let s1 = show e and s2 = show (Subst.freshen e) in
  Alcotest.(check bool) "same shape modulo uniques" true
    (String.length s1 = String.length s2
    || abs (String.length s1 - String.length s2) < 16)

let tests =
  [
    test "join and jump notation" prints_join_and_jump;
    test "recursive join groups" prints_rec_joins;
    test "strict bindings" prints_strict_lets;
    test "binder types" prints_types_on_binders;
    test "application parentheses" parenthesises_nested_apps;
    test "type applications" prints_type_applications;
    test "case layout" prints_case_layout;
    test "literals" prints_literals;
    test "stable under freshening" stable_under_freshen;
  ]
