(** Tests for the surface language front end: lexer, parser, type
    inference, and elaboration to well-typed F_J core. *)

open Fj_core
open Util

let compile ?datacons src = Fj_surface.Infer.compile ?datacons src

let compile_main src =
  let denv, core = compile src in
  (match Lint.lint_result denv core with
  | Ok _ -> ()
  | Error err ->
      Alcotest.failf "elaborated core does not lint: %a" Lint.pp_error err);
  (denv, core)

let runs_to expected src =
  let _, core = compile_main src in
  let t, _ = run core in
  Alcotest.(check string) "result" expected (Fmt.str "%a" Eval.pp_tree t)

let type_errors src =
  match compile src with
  | exception Fj_surface.Infer.Type_error _ -> ()
  | exception Fj_surface.Parser.Parse_error _ ->
      Alcotest.fail "expected a type error, got a parse error"
  | _ -> Alcotest.fail "expected a type error"

let parse_errors src =
  match compile src with
  | exception Fj_surface.Parser.Parse_error _ -> ()
  | exception Fj_surface.Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected a parse error"

(* ---------------- parsing ---------------- *)

let arithmetic () = runs_to "11" "def main = 1 + 2 * 3 + 4"
let precedence () = runs_to "True" "def main = 1 + 1 == 2 && 2 < 3"
let unary_minus () = runs_to "-5" "def main = 0 - 2 - 3"
let chars_strings () = runs_to "105" "def main = ord (strIdx \"hi\" 1) + 0"

let comments () =
  runs_to "7"
    {|
-- a line comment
def main = {- block
   comment -} 7
|}

let lambda_and_app () = runs_to "9" "def main = (\\x y -> x * y) 3 3"

let let_and_rec () =
  runs_to "120"
    {|
def main =
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1)
  in fact 5
|}

let list_sugar () =
  runs_to "(Cons 1 (Cons 2 Nil))" "def main = [1, 2]";
  runs_to "(Cons 1 (Cons 2 (Cons 3 Nil)))" "def main = 1 : 2 : [3]"

let tuple_sugar () =
  runs_to "(MkPair 1 True)" "def main = (1, 1 == 1)"

let case_literals () =
  runs_to "20"
    {|
def main = case 2 of { 1 -> 10; 2 -> 20; _ -> 0 }
|}

let char_patterns () =
  runs_to "1"
    {|
def main = case strIdx "a" 0 of { 'a' -> 1; _ -> 0 }
|}

let data_declaration () =
  runs_to "(Leaf 42)"
    {|
data Tree = Leaf Int | Branch Tree Tree
def main = Leaf 42
|}

let parameterised_data () =
  runs_to "(MkBox True)"
    {|
data Box a = MkBox a
def main = MkBox (1 == 1)
|}

(* ---------------- inference ---------------- *)

let polymorphic_defs () =
  runs_to "3"
    {|
def identity x = x
def main = identity (identity 3)
|}

let polymorphic_at_two_types () =
  runs_to "(MkPair 1 True)"
    {|
def identity x = x
def main = (identity 1, identity True)
|}

let constructor_partial_application () =
  runs_to "(Cons 5 Nil)"
    {|
def apply f x = f x
def main = apply (Cons 5) Nil
|}

let char_equality () =
  runs_to "True" "def main = 'a' == 'a'";
  runs_to "True" "def main = 'a' /= 'b'"

let occurs_check () = type_errors "def main = (\\x -> x x) 1"

let branch_type_mismatch () =
  type_errors "def main = if True then 1 else False"

let unbound_variable () = type_errors "def main = nonexistent"

let unknown_constructor () = type_errors "def main = Nonsense 3"

let wrong_pattern_arity () =
  type_errors
    "def main = case Just 1 of { Just -> 0; Nothing -> 1 }"

let no_main () =
  match compile "def notmain = 3" with
  | exception Fj_surface.Infer.Type_error (m, _) ->
      Alcotest.(check bool) "mentions main" true (contains m "main")
  | _ -> Alcotest.fail "expected an error about main"

(* Type variables are named per message, so the text of a type error
   does not depend on what the process inferred before. *)
let type_error_text_is_stable () =
  let message () =
    match compile "def main = (\\x -> x x) 1" with
    | exception Fj_surface.Infer.Type_error (m, _) -> m
    | _ -> Alcotest.fail "expected a type error"
  in
  let first = message () in
  ignore (compile "def main = let f x = x in f 1 + f 2");
  Alcotest.(check string) "same text" first (message ());
  Alcotest.(check bool) "numbered from t1" true (contains first "t1")

(* ---------------- parse errors ---------------- *)

let missing_brace () = parse_errors "def main = case 1 of { 1 -> 2"
let stray_operator () = parse_errors "def main = 1 + "
let bad_char_literal () = parse_errors "def main = 'ab"

(* An escaped character literal cut off by the end of the source is a
   lexical error, not an out-of-bounds read. *)
let escaped_char_at_eof () =
  List.iter parse_errors [ "def main = '\\n"; "def main = '\\"; "def main = '" ]

let keywords_lex () =
  let lex src =
    match Fj_surface.Lexer.tokenize src with
    | [ (t, _); (Fj_surface.Lexer.EOF, _) ] -> t
    | _ -> Alcotest.failf "%S is not one token" src
  in
  List.iter
    (fun kw ->
      Alcotest.(check bool) (kw ^ " is a keyword") true
        (lex kw = Fj_surface.Lexer.KW kw))
    [ "data"; "def"; "let"; "rec"; "in"; "case"; "of"; "if"; "then"; "else" ];
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " is an identifier") true
        (lex id = Fj_surface.Lexer.LIDENT id))
    [ "define"; "iff"; "in2"; "thenx"; "elsE"; "dat"; "of'"; "let_" ]

(* ---------------- prelude ---------------- *)

let prelude_works () =
  let denv, core =
    Fj_surface.Prelude.compile
      "def main = (length [1,2,3], reverse [1,2])"
  in
  let _ = lints ~env:denv core in
  let t, _ = run core in
  Alcotest.(check string) "result" "(MkPair 3 (Cons 2 (Cons 1 Nil)))"
    (Fmt.str "%a" Eval.pp_tree t)

let prelude_fold_functions () =
  let _, core =
    Fj_surface.Prelude.compile
      "def main = foldr (\\x acc -> x + acc) 0 [1,2,3] + foldl (\\acc x -> acc * x) 1 [2,3,4]"
  in
  let t, _ = run core in
  Alcotest.(check string) "result" "30" (Fmt.str "%a" Eval.pp_tree t)

let prelude_zip () =
  let _, core =
    Fj_surface.Prelude.compile
      "def main = sum (map (\\p -> fst p * snd p) (zip [1,2,3] [4,5,6]))"
  in
  let t, _ = run core in
  Alcotest.(check string) "result" "32" (Fmt.str "%a" Eval.pp_tree t)

(* ---------------- linking ---------------- *)

(* Compile after the prelude, check the linked core lints, and return
   the names bound on the let spine around [main], outermost first. *)
let linked src =
  let denv, core = Fj_surface.Prelude.compile src in
  ignore (lints ~env:denv core);
  let rec spine = function
    | Syntax.Let (Syntax.NonRec (v, _), body) ->
        Ident.name v.Syntax.v_name :: spine body
    | _ -> []
  in
  spine core

let link_keeps_reached () =
  Alcotest.(check (list string))
    "prelude: only what main uses, in source order"
    [ "sum"; "enumFromTo"; "main" ]
    (linked "def main = sum (enumFromTo 1 10)");
  Alcotest.(check (list string))
    "program: unused definitions are dropped too" [ "f"; "main" ]
    (linked
       "data T = A | B\ndef f t = case t of { A -> 1; B -> 2 }\n\
        def g = f A\ndef main = f B")

let link_keeps_transitive () =
  Alcotest.(check (list string))
    "elem reaches any, which reaches find"
    [ "find"; "any"; "elem"; "main" ]
    (linked "def main = elem 3 [1,2,3]")

(* [bad] is unreachable from [main], and still checked. *)
let link_after_checking () = type_errors "def bad = 1 + True\ndef main = 0"

(* [Prelude.compile] parses the program on its own, so its errors
   name the program's own lines, and its first line cannot continue
   the prelude's last definition. *)
let prelude_error_lines () =
  let error src =
    match Fj_surface.Prelude.compile src with
    | exception Fj_surface.Infer.Type_error (_, p) -> ("type", p.line)
    | exception Fj_surface.Parser.Parse_error (_, p) -> ("parse", p.line)
    | exception Fj_surface.Lexer.Lex_error (_, p) -> ("lex", p.line)
    | _ -> Alcotest.failf "%S compiled" src
  in
  let check what expected src =
    Alcotest.(check (pair string int)) what expected (error src)
  in
  check "type error" ("type", 2) "def main =\n  1 + True\n";
  check "parse error" ("parse", 2) "def main = 1\ndef f = )";
  check "lex error" ("lex", 2) "def main = 1\ndef c = 'ab";
  check "an operator first" ("parse", 1) "+ 0\ndef main = 0\n";
  check "a name first" ("parse", 1) "where\ndef main = 0"

(* ---------------- the shared prelude scope ---------------- *)

(* The oracle: the prelude's text and the program checked as one
   source. *)
let reference src =
  Fj_surface.Infer.compile (Fj_surface.Prelude.source ^ "\n" ^ src)

(* Compile under a fresh supply, as the service does: the output's
   bytes and the last key drawn. *)
let fresh_compile compile src =
  Context.with_fresh (fun () ->
      let _, core = compile src in
      (Sexp.write core, Ident.counter_value ()))

let same_as_reference what src =
  Alcotest.(check (pair string int))
    what
    (fresh_compile reference src)
    (fresh_compile Fj_surface.Prelude.compile src)

let shapes =
  {|
data Shape = Circle Int | Square Int
data Tree a = Leaf | Node (Tree a) a (Tree a)
def area s = case s of { Circle r -> 3 * r * r; Square a -> a * a }
def twice f x = f (f x)
def size t = case t of { Leaf -> 0; Node l x r -> size l + 1 + size r }
def main =
  sum (map area [Circle 1, Square (twice (\n -> n + 1) 0)])
    + size (Node Leaf 'a' Leaf)
|}

let shared_scope_is_the_reference () =
  let corpus = repo_files "fjbench/corpus" ".fj"
  and examples = repo_files "examples/programs" ".fj" in
  Alcotest.(check bool) "sources present" true
    (List.length corpus >= 27 && List.length examples >= 8);
  List.iter (fun (f, src) -> same_as_reference f src) (corpus @ examples);
  same_as_reference "data declarations" shapes;
  same_as_reference "a prelude name redefined"
    "def map f xs = case xs of { Nil -> 0; Cons x rest -> f x + map f rest }\n\
     def main = map (\\x -> x * 2) [1, 2, 3] + length (reverse [4])"

(* Zonk defaults [length Nil]'s element type to Unit. Had that written
   into [length]'s scheme, the programs after it would not type-check
   or would differ from their references. *)
let shared_scope_not_mutated () =
  let defaulted = "def main = length Nil" in
  let first = fresh_compile Fj_surface.Prelude.compile defaulted in
  Alcotest.(check bool) "defaulted to Unit" true (contains (fst first) "Unit");
  List.iter
    (fun src -> same_as_reference src src)
    [ defaulted; "def main = length [1]"; "def main = length ['a']"; defaulted ];
  Alcotest.(check (pair string int))
    "the first program again" first
    (fresh_compile Fj_surface.Prelude.compile defaulted)

(* Every binder key in an elaborated term, which has no join points. *)
let rec binder_keys acc (e : Syntax.expr) =
  let var acc (v : Syntax.var) = Ident.id v.v_name :: acc in
  match e with
  | Var _ | Lit _ -> acc
  | Con (_, _, es) | Prim (_, es) -> List.fold_left binder_keys acc es
  | App (f, a) -> binder_keys (binder_keys acc f) a
  | TyApp (f, _) -> binder_keys acc f
  | Lam (v, b) -> binder_keys (var acc v) b
  | TyLam (a, b) -> binder_keys (Ident.id a :: acc) b
  | Let (bind, b) ->
      binder_keys
        (List.fold_left
           (fun acc (v, rhs) -> binder_keys (var acc v) rhs)
           acc (Syntax.bind_pairs bind))
        b
  | Case (s, alts) ->
      List.fold_left
        (fun acc { Syntax.alt_pat; alt_rhs } ->
          binder_keys (List.fold_left var acc (Syntax.pat_binders alt_pat)) alt_rhs)
        (binder_keys acc s) alts
  | Join _ | Jump _ -> Alcotest.fail "elaboration built a join point"

(* A supply that has drawn keys already: the program's keys continue
   above them, the prelude's stay below the program's, and the result
   lints and optimises cleanly. *)
let shared_scope_used_supply () =
  Context.with_fresh @@ fun () ->
  for _ = 1 to 300 do
    ignore (Ident.fresh "used")
  done;
  let denv, core = Fj_surface.Prelude.compile shapes in
  ignore (lints ~env:denv core);
  let rec spine own prelude = function
    | Syntax.Let (Syntax.NonRec (v, rhs), body) ->
        let keys = binder_keys [ Ident.id v.v_name ] rhs in
        if List.mem (Ident.name v.v_name) [ "area"; "twice"; "size"; "main" ]
        then spine (keys @ own) prelude body
        else spine own (keys @ prelude) body
    | _ -> (own, prelude)
  in
  let own, prelude = spine [] [] core in
  Alcotest.(check bool) "program and prelude binders on the spine" true
    (own <> [] && prelude <> []);
  List.iter
    (fun k -> if k <= 300 then Alcotest.failf "program binder key %d <= 300" k)
    own;
  let lowest = List.fold_left min max_int own in
  List.iter
    (fun k ->
      if k >= lowest then
        Alcotest.failf "prelude binder key %d >= program key %d" k lowest)
    prelude;
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~policy:Guard.Recover ()
  in
  same_result core (compile_clean "used supply" cfg core)

(* laziness is preserved by elaboration *)
let elaboration_preserves_laziness () =
  runs_to "1"
    {|
def main =
  let rec boom x = boom x in
  let unused = boom 0 in
  1
|}

let tests =
  [
    test "arithmetic and precedence" arithmetic;
    test "boolean precedence" precedence;
    test "unary and binary minus" unary_minus;
    test "chars and strings" chars_strings;
    test "comments" comments;
    test "lambda and application" lambda_and_app;
    test "let and let rec" let_and_rec;
    test "list sugar" list_sugar;
    test "tuple sugar" tuple_sugar;
    test "case on literals" case_literals;
    test "char patterns" char_patterns;
    test "data declarations" data_declaration;
    test "parameterised data" parameterised_data;
    test "polymorphic defs" polymorphic_defs;
    test "polymorphism at two types" polymorphic_at_two_types;
    test "constructor partial application" constructor_partial_application;
    test "char equality" char_equality;
    test "occurs check" occurs_check;
    test "type-error text is stable" type_error_text_is_stable;
    test "branch type mismatch" branch_type_mismatch;
    test "unbound variable" unbound_variable;
    test "unknown constructor" unknown_constructor;
    test "wrong pattern arity" wrong_pattern_arity;
    test "program without main" no_main;
    test "missing brace" missing_brace;
    test "stray operator" stray_operator;
    test "bad char literal" bad_char_literal;
    test "prelude basics" prelude_works;
    test "prelude folds" prelude_fold_functions;
    test "prelude zip" prelude_zip;
    test "elaboration preserves laziness" elaboration_preserves_laziness;
    test "escaped char literal at end of input" escaped_char_at_eof;
    test "keywords lex as KW, near-misses as identifiers" keywords_lex;
    test "link binds only what main reaches" link_keeps_reached;
    test "link follows definitions transitively" link_keeps_transitive;
    test "link prunes only after checking every definition" link_after_checking;
    test "prelude errors carry the program's line numbers" prelude_error_lines;
    test "shared prelude scope: same bytes as the concatenated check"
      shared_scope_is_the_reference;
    test "shared prelude scope: no program writes to it"
      shared_scope_not_mutated;
    test "shared prelude scope: program keys continue a used supply"
      shared_scope_used_supply;
  ]
