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

let layout_gen_programs () =
  List.iter
    (fun size ->
      for seed = 1 to 150 do
        let e = Gen.program_of_seed ~size seed in
        let s = Sexp.of_expr e in
        same_layout (Fmt.str "Gen seed %d size %d" seed size) s;
        Alcotest.(check string) "write = to_string of_expr"
          (Sexp.to_string s) (Sexp.write e)
      done)
    [ 5; 20; 40; 120; 400 ]

(* Every tree that crosses a pass boundary: the pass-cache hook is
   asked for each pass's input, which is the previous pass's output. *)
let layout_pass_boundaries () =
  let seen = ref 0 in
  let check what e =
    incr seen;
    same_layout what (Sexp.of_expr e)
  in
  List.iter
    (fun mode ->
      List.iter
        (fun (pr : Bench_programs.program) ->
          let datacons, core = Bench_programs.compile pr in
          let name = pr.Bench_programs.name in
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
        Bench_programs.all)
    [ Pipeline.Join_points; Pipeline.Baseline; Pipeline.No_cc ];
  Alcotest.(check bool) "pass boundaries seen" true (!seen > 1000)

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
  (* A bushy tree [k] singleton lists deep, so it starts at column [k]. *)
  let rec wrap k s = if k = 0 then s else Sexp.List [ wrap (k - 1) s ] in
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
    test "layout = Format's on Gen programs" layout_gen_programs;
    test "layout = Format's at every pass boundary" layout_pass_boundaries;
    test "layout = Format's on random trees" layout_random_trees;
  ]
