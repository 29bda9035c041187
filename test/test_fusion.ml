(** Tests for the stream-fusion library (Sec. 5): the paper's central
    performance claims, checked exactly.

    - skipless pipelines containing [filter] fuse to zero allocation
      under the join-point compiler ("a straight win");
    - they do NOT fuse under the baseline (the recursive stepper
      "breaks up the chain of cases by putting a loop in the way");
    - skip-ful [zip] is more expensive than skipless [zip]. *)

open Fj_core
open Util

let words_after mode src =
  let denv, core = Fj_fusion.Streams.compile_pipeline src in
  let _ = lints ~env:denv core in
  let cfg =
    Pipeline.default_config ~mode ~datacons:denv ~inline_threshold:300 ()
  in
  let e = Pipeline.run cfg core in
  let _ = lints ~env:denv e in
  let t0, _ = run core in
  let t, s = run e in
  Alcotest.check tree_testable "pipeline preserves meaning" t0 t;
  s.Eval.words

let skipless_fuses_to_zero () =
  let w =
    words_after Pipeline.Join_points
      (Fj_fusion.Streams.sum_map_filter_skipless 100)
  in
  Alcotest.(check int) "zero allocation" 0 w

let skipless_baseline_allocates_per_element () =
  let w100 =
    words_after Pipeline.Baseline
      (Fj_fusion.Streams.sum_map_filter_skipless 100)
  in
  let w200 =
    words_after Pipeline.Baseline
      (Fj_fusion.Streams.sum_map_filter_skipless 200)
  in
  Alcotest.(check bool) "O(n) allocation" true (w200 > w100 + 100)

let skipful_also_fuses () =
  let w =
    words_after Pipeline.Join_points
      (Fj_fusion.Streams.sum_map_filter_skipful 100)
  in
  Alcotest.(check int) "zero allocation" 0 w

let double_filter_fuses () =
  let w =
    words_after Pipeline.Join_points
      (Fj_fusion.Streams.double_filter_skipless 100)
  in
  Alcotest.(check int) "zero allocation" 0 w

let zip_skipful_worse () =
  (* "functions like zip that consume two lists become more complicated
     and less efficient" with Skip. *)
  let skipless =
    words_after Pipeline.Join_points (Fj_fusion.Streams.dot_product_skipless 100)
  in
  let skipful =
    words_after Pipeline.Join_points (Fj_fusion.Streams.dot_product_skipful 100)
  in
  Alcotest.(check bool)
    (Fmt.str "skip-ful zip allocates more (%d > %d)" skipful skipless)
    true (skipful > skipless)

let results_agree_everywhere () =
  (* One shared value across: lists, skipless, skip-ful × both modes,
     each the value of its own unoptimised program. *)
  let value mode src =
    let denv, core = Fj_fusion.Streams.compile_pipeline src in
    let cfg = Pipeline.default_config ~mode ~datacons:denv () in
    let t0, _ = run core in
    let t, _ = run (Pipeline.run cfg core) in
    Alcotest.check tree_testable "pipeline preserves meaning" t0 t;
    Fmt.str "%a" Eval.pp_tree t
  in
  let open Fj_fusion.Streams in
  List.iter
    (fun mode ->
      let a = value mode (sum_map_filter_skipless 50) in
      let b = value mode (sum_map_filter_skipful 50) in
      let c = value mode (sum_map_filter_lists 50) in
      Alcotest.(check string) "skipless = skipful" a b;
      Alcotest.(check string) "skipless = lists" a c)
    [ Pipeline.Baseline; Pipeline.Join_points ]

let to_list_round_trip () =
  let denv, core =
    Fj_fusion.Streams.compile_pipeline "sToList (sMap (\\x -> x + 1) (sFromTo 1 5))"
  in
  let _ = lints ~env:denv core in
  let t, _ = run core in
  Alcotest.(check string) "materialised"
    "(Cons 2 (Cons 3 (Cons 4 (Cons 5 (Cons 6 Nil)))))"
    (Fmt.str "%a" Eval.pp_tree t)

let from_list_consumes () =
  let denv, core =
    Fj_fusion.Streams.compile_pipeline "sSum (sFromList [10, 20, 30])"
  in
  let _ = lints ~env:denv core in
  let t, _ = run core in
  Alcotest.(check string) "summed" "60" (Fmt.str "%a" Eval.pp_tree t)

let take_limits () =
  let denv, core =
    Fj_fusion.Streams.compile_pipeline "sSum (sTake 3 (sFromTo 1 100))"
  in
  let _ = lints ~env:denv core in
  let t, _ = run core in
  Alcotest.(check string) "took 3" "6" (Fmt.str "%a" Eval.pp_tree t)

let fused_beats_lists_on_steps () =
  let steps mode src =
    let denv, core = Fj_fusion.Streams.compile_pipeline src in
    let cfg = Pipeline.default_config ~mode ~datacons:denv ~inline_threshold:300 () in
    let _, s = run (Pipeline.run cfg core) in
    s.Eval.steps
  in
  let fused =
    steps Pipeline.Join_points (Fj_fusion.Streams.sum_map_filter_skipless 100)
  in
  let lists =
    steps Pipeline.Join_points (Fj_fusion.Streams.sum_map_filter_lists 100)
  in
  Alcotest.(check bool)
    (Fmt.str "fused streams cheaper than lists (%d < %d)" fused lists)
    true (fused < lists)

let tests =
  [
    test "skipless+joins fuses to zero allocation" skipless_fuses_to_zero;
    test "skipless baseline allocates O(n)" skipless_baseline_allocates_per_element;
    test "skip-ful also fuses under joins" skipful_also_fuses;
    test "double filter fuses" double_filter_fuses;
    test "skip-ful zip is worse" zip_skipful_worse;
    test "all representations agree" results_agree_everywhere;
    test "sToList materialises" to_list_round_trip;
    test "sFromList consumes" from_list_consumes;
    test "sTake limits" take_limits;
    test "fused streams beat lists on steps" fused_beats_lists_on_steps;
  ]
