(** Tests for {!Fj_core.Sexp} — the IR serialisation: exact round
    trips (uniques preserved), error handling, and interaction with the
    rest of the toolchain (a reloaded program still lints, runs and
    optimises identically). *)

open Fj_core
open Util
module B = Builder

let roundtrip e =
  let s = Sexp.write e in
  let e' = Sexp.read dc s in
  (* Exact: the printed Core must be identical, uniques included. *)
  Alcotest.(check string) "identical after round trip" (Pretty.to_string e)
    (Pretty.to_string e');
  e'

let literals () =
  ignore (roundtrip (B.int 42));
  ignore (roundtrip (B.int (-7)));
  ignore (roundtrip (B.char 'x'));
  ignore (roundtrip (B.str "hello \"world\"\n"))

let data_and_prims () =
  ignore (roundtrip (B.int_list [ 1; 2; 3 ]));
  ignore (roundtrip (B.add (B.mul (B.int 2) (B.int 3)) (B.int 4)));
  ignore (roundtrip (B.pair Types.int Types.bool (B.int 1) B.true_))

let functions_and_lets () =
  ignore (roundtrip (B.lam "x" Types.int (fun x -> B.add x (B.int 1))));
  ignore
    (roundtrip
       (B.let_ "a" (B.int 1) (fun a ->
            B.letrec1 "f"
              (Types.Arrow (Types.int, Types.int))
              (fun f -> B.lam "n" Types.int (fun n -> B.app f (B.add n a)))
              (fun f -> B.app f (B.int 0)))))

let polymorphism () =
  ignore (roundtrip (B.tlam "a" (fun a -> B.lam "x" a (fun x -> x))));
  ignore
    (roundtrip
       (B.tyapp (B.tlam "a" (fun a -> B.lam "x" a (fun x -> x))) Types.int))

let join_points () =
  ignore
    (roundtrip
       (B.join1 "j"
          [ ("x", Types.int) ]
          (fun xs -> B.add (List.hd xs) (B.int 1))
          (fun jmp -> jmp [ B.int 41 ] Types.int)));
  ignore
    (roundtrip
       (B.joinrec1 "loop"
          [ ("n", Types.int) ]
          (fun jmp xs ->
            B.if_
              (B.le (List.hd xs) (B.int 0))
              (B.int 0)
              (jmp [ B.sub (List.hd xs) (B.int 1) ] Types.int))
          (fun jmp -> jmp [ B.int 3 ] Types.int)))

let strict_bindings () =
  let x = Syntax.mk_var "x" Types.int in
  ignore
    (roundtrip
       (Syntax.Let (Syntax.Strict (x, B.add (B.int 1) (B.int 2)), Syntax.Var x)))

let whole_program () =
  let denv, core =
    Fj_surface.Prelude.compile
      "def main = sum (map (\\x -> x * 2) (filter odd (enumFromTo 1 20)))"
  in
  let s = Sexp.write core in
  let core' = Sexp.read denv s in
  (* Reloaded: lints, runs and optimises exactly like the original. *)
  let _ = lints ~env:denv core' in
  same_result core core';
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv ()
  in
  same_result (Pipeline.run cfg core) (Pipeline.run cfg core')

let optimised_program () =
  (* Serialising post-optimisation Core (with joins and strict lets). *)
  let denv, core =
    Fj_fusion.Streams.compile_pipeline
      (Fj_fusion.Streams.sum_map_filter_skipless 30)
  in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~inline_threshold:300 ()
  in
  let opt = Pipeline.run cfg core in
  let opt' = Sexp.read denv (Sexp.write opt) in
  let _ = lints ~env:denv opt' in
  same_result opt opt'

let fresh_uniques_safe () =
  (* After reading, newly allocated uniques must not collide with the
     loaded ones. *)
  let e = B.lam "x" Types.int (fun x -> x) in
  let e' = Sexp.read dc (Sexp.write e) in
  let max_id =
    Ident.Set.fold
      (fun i acc -> max acc (Ident.id i))
      (Syntax.free_vars e') 0
  in
  let fresh = Ident.fresh "probe" in
  Alcotest.(check bool) "fresh above loaded" true (Ident.id fresh > max_id)

let parse_errors () =
  let bad = [ "("; ")"; "(var)"; "(lam x)"; "(con Unknown () )"; "" ] in
  List.iter
    (fun src ->
      match Sexp.read dc src with
      | exception Sexp.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected a parse error for %S" src)
    bad

(* A loaded unique must leave the supply room to draw from: the reader
   takes an id only in [string_of_int]'s spelling and only up to
   2^48, and the supply fails rather than wrap. *)
let loaded_uniques_cannot_wrap () =
  Ident.with_supply (Ident.new_supply ()) @@ fun () ->
  let var id = Fmt.str "(var (x.%s (tc Int)))" id in
  List.iter
    (fun id ->
      match Sexp.read dc (var id) with
      | exception Sexp.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected a parse error for %s" (var id))
    [
      string_of_int max_int; string_of_int ((1 lsl 48) + 1); "0x10"; "010";
      "-1"; "-0"; "+5"; "1_000"; "";
    ];
  Alcotest.(check int) "supply untouched" 0 (Ident.counter_value ());
  ignore (Sexp.read dc (var (string_of_int (1 lsl 48))));
  Alcotest.(check int) "the bound itself reads" ((1 lsl 48) + 1)
    (Ident.counter_value ());
  Ident.restore_counter max_int;
  (match Ident.fresh "x" with
  | exception Failure _ -> ()
  | x -> Alcotest.failf "fresh wrapped to %d" (Ident.id x));
  Ident.restore_counter 0;
  match Ident.ensure_above max_int with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.failf "ensure_above max_int left %d" (Ident.counter_value ())

(* The Format printer every artifact was written with, kept as the
   oracle for [Sexp.to_string]'s layout engine: one hov box of indent
   1 per list, a space break between elements, under [asprintf]. *)
let rec format_pp ppf = function
  | Sexp.Atom s -> Fmt.string ppf s
  | Sexp.List xs ->
      Fmt.pf ppf "@[<hov 1>(%a)@]" Fmt.(list ~sep:sp format_pp) xs

let format_to_string s = Fmt.str "%a" format_pp s

let same_layout what s =
  let expected = format_to_string s in
  let got = Sexp.to_string s in
  if not (String.equal expected got) then
    Alcotest.failf "%s: layout differs from Format's@.%s@.--- got ---@.%s"
      what expected got

(* Written Core, which has no tree of its own: Format gets the tree the
   text parses back to, and [to_string] of that tree must agree. *)
let same_written what e =
  let text = Sexp.write e in
  let s = Sexp.parse_string text in
  let expected = format_to_string s in
  if not (String.equal expected text) then
    Alcotest.failf "%s: layout differs from Format's@.%s@.--- got ---@.%s"
      what expected text;
  Alcotest.(check string) "to_string of the parsed text" text
    (Sexp.to_string s)

let layout_gen_programs () =
  List.iter
    (fun size ->
      for seed = 1 to 150 do
        same_written
          (Fmt.str "Gen seed %d size %d" seed size)
          (Gen.program_of_seed ~size seed)
      done)
    [ 5; 20; 40; 120; 400 ]

(* Every tree that crosses a pass boundary: the pass-cache hook is
   asked for each pass's input, which is the previous pass's output. *)
let layout_pass_boundaries () =
  let seen = ref 0 in
  let check what e =
    incr seen;
    same_written what e
  in
  List.iter
    (fun mode ->
      List.iter
        (fun (name, src) ->
          let datacons, core = Fj_surface.Prelude.compile src in
          let cache =
            {
              Pipeline.cache_lookup =
                (fun ~pass ~supply:_ ~input ->
                  check (Fmt.str "%s: input of %s" name pass) input;
                  None);
              cache_store = (fun ~pass:_ ~supply:_ ~input:_ _ -> ());
            }
          in
          check (name ^ ": elaborated") core;
          let out =
            Pipeline.run (Pipeline.default_config ~mode ~datacons ~cache ()) core
          in
          check (name ^ ": final") out)
        (nofib ()))
    [ Pipeline.Join_points; Pipeline.Baseline; Pipeline.No_cc ];
  Alcotest.(check bool) "pass boundaries seen" true (!seen > 1000)

(* Each comparison of the layout rule at its boundary, on hand-built
   trees: the expected text and Format's must agree. *)
let pinned what s expected =
  same_layout what s;
  Alcotest.(check string) what expected (Sexp.to_string s)

let atom n c = Sexp.Atom (String.make n c)

(* [s] [k] singleton lists deep, so it starts at column [k]. *)
let rec wrap k s = if k = 0 then s else Sexp.List [ wrap (k - 1) s ]
let parens k = String.make k '(', String.make k ')'

(* |L| = 2 + 20 + 20 + 24 + 2 = 68. Opened at column 10, r = 68: it
   does not fit, and its last element, with |x| + 2 = 26 = r, starts a
   new line. At column 9 it fits. Taking |L| <= r as fitting, or
   dropping the last element's >=, prints both flat. *)
let fit_boundary () =
  let l = Sexp.List [ atom 20 'a'; atom 20 'b'; atom 24 'c' ] in
  let o, c = parens 10 in
  pinned "|L| = r breaks" (wrap 10 l)
    (Printf.sprintf "%s(%s %s\n%s%s)%s" o (String.make 20 'a')
       (String.make 20 'b') (String.make 11 ' ') (String.make 24 'c') c);
  let o, c = parens 9 in
  pinned "|L| = r - 1 fits" (wrap 9 l)
    (Printf.sprintf "%s(%s %s %s)%s" o (String.make 20 'a')
       (String.make 20 'b') (String.make 24 'c') c)

(* (p x q z) at column 0 does not fit. Before x (not last), r = 67 =
   |x| + 2: x stays on the line. q then starts line 2, and before z
   (last), r = 67 = |z| + 2: z starts line 3. Dropping the last
   element's >= keeps z on line 2; taking >= for every element moves
   x to line 2. *)
let break_boundary () =
  let s = Sexp.List [ atom 10 'p'; atom 65 'x'; atom 10 'q'; atom 65 'z' ] in
  pinned "|x| + 2 = r" s
    (Printf.sprintf "(%s %s\n %s\n %s)" (String.make 10 'p')
       (String.make 65 'x') (String.make 10 'q') (String.make 65 'z'))

(* (x (b c) y) at column 0 does not fit, and (b c) would fit after x
   at column 69, past 68: the parent's line breaks first, after the
   space already printed. The last element then has |y| + 2 = r and
   takes a line of its own. *)
let forced_break () =
  let s =
    Sexp.List
      [ atom 67 'x'; Sexp.List [ Sexp.Atom "b"; Sexp.Atom "c" ]; atom 70 'y' ]
  in
  pinned "opened past column 68" s
    (Printf.sprintf "(%s \n (b c)\n %s)" (String.make 67 'x')
       (String.make 70 'y'))

(* Random trees past the engine's edges: atoms longer than the space
   a box opened at the maximum indent has left, nesting deeper than the
   maximum indent, boxes opened near the margin, empty lists and empty
   atoms. *)
let layout_random_trees () =
  let st = Random.State.make [| 15 |] in
  let atom max_len =
    let len = Random.State.int st (max_len + 1) in
    Sexp.Atom (String.init len (fun i -> Char.chr (97 + ((i + len) mod 26))))
  in
  (* A spine of exactly [depth] nested lists with small trees beside
     it, or a bushy tree of short atoms. *)
  let rec spine depth =
    if depth = 0 then atom 120
    else
      let n = 1 + Random.State.int st 4 in
      let k = Random.State.int st n in
      Sexp.List
        (List.init n (fun i ->
             if i = k then spine (depth - 1)
             else if Random.State.bool st then atom 120
             else bush (Random.State.int st 3)))
  and bush depth =
    if depth = 0 || Random.State.int st 4 = 0 then atom 6
    else Sexp.List (List.init (Random.State.int st 6) (fun _ -> bush (depth - 1)))
  in
  let deepest = ref 0 in
  let rec depth = function
    | Sexp.Atom _ -> 0
    | Sexp.List xs -> 1 + List.fold_left (fun d x -> Int.max d (depth x)) 0 xs
  in
  for i = 1 to 10_000 do
    let s =
      match i mod 3 with
      | 0 -> spine (Random.State.int st 90)
      | 1 -> bush (1 + Random.State.int st 7)
      | _ -> wrap (55 + Random.State.int st 25) (bush (1 + Random.State.int st 4))
    in
    deepest := Int.max !deepest (depth s);
    same_layout (Fmt.str "random tree %d" i) s
  done;
  Alcotest.(check bool) "nesting deeper than the max indent" true
    (!deepest > 68)

let tests =
  [
    test "literals round trip" literals;
    test "data and primops round trip" data_and_prims;
    test "functions and lets round trip" functions_and_lets;
    test "polymorphism round trips" polymorphism;
    test "join points round trip" join_points;
    test "strict bindings round trip" strict_bindings;
    test "whole programs round trip and re-optimise" whole_program;
    test "optimised core round trips" optimised_program;
    test "fresh uniques stay disjoint" fresh_uniques_safe;
    test "parse errors are reported" parse_errors;
    test "a loaded unique cannot wrap the supply" loaded_uniques_cannot_wrap;
    test "layout: the fit test at |L| = r" fit_boundary;
    test "layout: the break test at |x| + 2 = r" break_boundary;
    test "layout: a list opened past column 68" forced_break;
    test "layout = Format's on Gen programs" layout_gen_programs;
    test "layout = Format's at every pass boundary" layout_pass_boundaries;
    test "layout = Format's on random trees" layout_random_trees;
  ]
