(** Tests for {!Fj_core.Bench_diff}: round-trip over two inline
    [fj-bench/1] fixtures — program alignment, per-kind delta and gate
    semantics (counts in percent, delta_pct in points, timing beyond
    recorded noise, info never gated), appearing / disappearing
    programs, and the markdown / JSON renderings. *)

open Fj_core
open Util

(* A minimal but schema-complete fj-bench/1 document: two programs
   with timing and optimizer summaries, plus coverage. *)
let fixture_old =
  {|{"schema": "fj-bench/1", "date": "2026-08-01", "quick": true,
     "commit": "0123456789abcdef",
     "programs": [
       {"name": "queens", "suite": "spectral",
        "base_words": 1000, "join_words": 800,
        "base_steps": 5000, "join_steps": 4000,
        "base_jumps": 0, "join_jumps": 120,
        "delta_pct": -20.0,
        "timing": {"warmup": 1, "samples": 5,
                   "base_eval_ms_median": 1.0, "base_eval_ms_p95": 1.2,
                   "join_eval_ms_median": 0.8, "join_eval_ms_p95": 0.9},
        "optimizer": {"join": {"total_ticks": 40, "contified": 3,
                               "decisions": {"fired": 10, "rejected": 2}}}},
       {"name": "vanishes", "suite": "spectral",
        "base_words": 10, "join_words": 10, "delta_pct": 0.0}
     ],
     "suites": [], "metrics": {}, "failures": [],
     "coverage": {"covered": 50, "percent": 40.0}}|}

(* The new side: join_words regressed 5%, delta_pct worsened 5 points,
   base timing jumped far beyond its noise band, steps improved;
   "vanishes" disappeared and "appears" appeared. *)
let fixture_new =
  {|{"schema": "fj-bench/1", "date": "2026-08-08", "quick": true,
     "programs": [
       {"name": "queens", "suite": "spectral",
        "base_words": 1000, "join_words": 840,
        "base_steps": 5000, "join_steps": 3600,
        "base_jumps": 0, "join_jumps": 120,
        "delta_pct": -15.0,
        "timing": {"warmup": 1, "samples": 5,
                   "base_eval_ms_median": 2.0, "base_eval_ms_p95": 2.1,
                   "join_eval_ms_median": 0.81, "join_eval_ms_p95": 0.95},
        "optimizer": {"join": {"total_ticks": 90, "contified": 3,
                               "decisions": {"fired": 11, "rejected": 1}}}},
       {"name": "appears", "suite": "spectral",
        "base_words": 7, "join_words": 7, "delta_pct": 0.0}
     ],
     "suites": [], "metrics": {}, "failures": [],
     "coverage": {"covered": 55, "percent": 44.0}}|}

let diff ?gate_pct ?gate_timing () =
  match
    Bench_diff.of_strings ?gate_pct ?gate_timing ~old_label:"old.json"
      ~new_label:"new.json" fixture_old fixture_new
  with
  | Ok d -> d
  | Error m -> Alcotest.failf "diff failed: %s" m

let metric d prog name =
  let p =
    match
      List.find_opt (fun p -> p.Bench_diff.p_name = prog) d.Bench_diff.d_programs
    with
    | Some p -> p
    | None -> Alcotest.failf "program %s not aligned" prog
  in
  match
    List.find_opt (fun m -> m.Bench_diff.m_metric = name) p.Bench_diff.p_metrics
  with
  | Some m -> m
  | None -> Alcotest.failf "metric %s missing for %s" name prog

let alignment () =
  let d = diff () in
  Alcotest.(check int) "one aligned program" 1
    (List.length d.Bench_diff.d_programs);
  Alcotest.(check (list string)) "disappeared" [ "vanishes" ]
    d.Bench_diff.d_only_old;
  Alcotest.(check (list string)) "appeared" [ "appears" ] d.Bench_diff.d_only_new;
  (* Labels carry date, and the commit when stamped. *)
  Alcotest.(check string) "old label" "old.json (2026-08-01, 012345678)"
    d.Bench_diff.d_old;
  Alcotest.(check string) "new label" "new.json (2026-08-08)"
    d.Bench_diff.d_new

let deltas () =
  let d = diff () in
  let m = metric d "queens" "join_words" in
  Alcotest.(check (float 1e-9)) "join_words delta" 40.0 m.Bench_diff.m_delta;
  (match m.Bench_diff.m_delta_pct with
  | Some pct -> Alcotest.(check (float 1e-9)) "join_words pct" 5.0 pct
  | None -> Alcotest.fail "join_words has no pct");
  let m = metric d "queens" "delta_pct" in
  Alcotest.(check (float 1e-9)) "delta_pct points" 5.0 m.Bench_diff.m_delta;
  let m = metric d "queens" "timing.base_eval_ms_median" in
  (* Noise band: (1.2-1.0) + (2.1-2.0) = 0.3. *)
  (match m.Bench_diff.m_noise with
  | Some n -> Alcotest.(check (float 1e-9)) "noise band" 0.3 n
  | None -> Alcotest.fail "timing metric has no noise band");
  (* No gate: nothing regressed anywhere. *)
  Alcotest.(check int) "ungated diff has no regressions" 0
    (List.length (Bench_diff.regressions d))

let gate () =
  let d = diff ~gate_pct:2.0 () in
  let regressed ?(d = d) name =
    (metric d "queens" name).Bench_diff.m_regressed
  in
  (* +5% words > 2% gate; +5 points > 2 point gate. *)
  Alcotest.(check bool) "join_words trips" true (regressed "join_words");
  Alcotest.(check bool) "delta_pct trips" true (regressed "delta_pct");
  (* Timing is opt-in: cross-machine wall clocks don't compare. By
     default the +1.0 jump is reported but not gated... *)
  Alcotest.(check bool) "timing silent by default" false
    (regressed "timing.base_eval_ms_median");
  let rs = Bench_diff.regressions d in
  Alcotest.(check int) "two regressions without timing" 2 (List.length rs);
  (* ...with --timing-gate it trips: +1.0 over a 0.3 noise band + 2%
     of 1.0. *)
  let dt = diff ~gate_pct:2.0 ~gate_timing:true () in
  Alcotest.(check bool) "base timing trips when opted in" true
    (regressed ~d:dt "timing.base_eval_ms_median");
  (* Improvements and in-noise movement pass: steps improved, join
     timing moved +0.01 inside its 0.24 noise band. *)
  Alcotest.(check bool) "improvement passes" false (regressed ~d:dt "join_steps");
  Alcotest.(check bool) "in-noise timing passes" false
    (regressed ~d:dt "timing.join_eval_ms_median");
  (* Info metrics never gate, however much they move. *)
  Alcotest.(check bool) "info never gates" false
    (regressed ~d:dt "optimizer.join.total_ticks");
  Alcotest.(check int) "three regressions with timing opted in" 3
    (List.length (Bench_diff.regressions dt));
  (* A generous gate waves the same diff through. *)
  Alcotest.(check int) "gate 1000 passes everything" 0
    (List.length
       (Bench_diff.regressions (diff ~gate_pct:1000.0 ~gate_timing:true ())))

let self_diff_is_clean () =
  match
    Bench_diff.of_strings ~gate_pct:2.0 ~old_label:"a" ~new_label:"b"
      fixture_old fixture_old
  with
  | Error m -> Alcotest.failf "self diff failed: %s" m
  | Ok d ->
      Alcotest.(check int) "no regressions" 0
        (List.length (Bench_diff.regressions d));
      Alcotest.(check bool) "no appearing/disappearing" true
        (d.Bench_diff.d_only_old = [] && d.Bench_diff.d_only_new = []);
      List.iter
        (fun p ->
          List.iter
            (fun m ->
              Alcotest.(check (float 0.0))
                (Fmt.str "%s zero delta" m.Bench_diff.m_metric)
                0.0 m.Bench_diff.m_delta)
            p.Bench_diff.p_metrics)
        d.Bench_diff.d_programs

let renderings () =
  let d = diff ~gate_pct:2.0 ~gate_timing:true () in
  let md = Bench_diff.to_markdown d in
  Alcotest.(check bool) "md has table header" true
    (contains md "| program | suite |");
  Alcotest.(check bool) "md lists the program" true (contains md "queens");
  Alcotest.(check bool) "md has regressions section" true
    (contains md "## Regressions (3)");
  Alcotest.(check bool) "md notes disappearance" true (contains md "vanishes");
  let json = Telemetry.Json.to_string (Bench_diff.to_json d) in
  Alcotest.(check bool) "json well-formed" true
    (Telemetry.Json.is_well_formed json);
  match Telemetry.Json.parse json with
  | Error m -> Alcotest.failf "diff json does not parse: %s" m
  | Ok (Telemetry.Json.Obj fields) ->
      (match List.assoc_opt "schema" fields with
      | Some (Telemetry.Json.Str "fj-bench-diff/1") -> ()
      | _ -> Alcotest.fail "wrong diff schema");
      (match List.assoc_opt "regressions" fields with
      | Some (Telemetry.Json.Arr rs) ->
          Alcotest.(check int) "json regressions" 3 (List.length rs)
      | _ -> Alcotest.fail "regressions missing")
  | Ok _ -> Alcotest.fail "diff json not an object"

let rejects_non_bench () =
  (match
     Bench_diff.of_strings ~old_label:"bad" ~new_label:"new" {|{"schema":"nope/9"}|}
       fixture_new
   with
  | Error m ->
      Alcotest.(check bool) "names the bad side" true
        (String.length m >= 3 && String.sub m 0 3 = "bad")
  | Ok _ -> Alcotest.fail "accepted a non-bench schema");
  match Bench_diff.of_strings ~old_label:"o" ~new_label:"n" "{" fixture_new with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unparseable JSON"

(* The committed trajectory snapshot stays diffable against itself —
   the same invariant CI relies on before gating a fresh run. *)
let committed_baseline_self_diff () =
  let path = "../BENCH_2026-08.json" in
  if not (Sys.file_exists path) then ()
  else
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match
      Bench_diff.of_strings ~gate_pct:2.0 ~old_label:"BENCH" ~new_label:"BENCH"
        s s
    with
    | Error m -> Alcotest.failf "committed baseline does not diff: %s" m
    | Ok d ->
        Alcotest.(check bool) "aligned programs" true
          (d.Bench_diff.d_programs <> []);
        Alcotest.(check int) "self diff clean" 0
          (List.length (Bench_diff.regressions d))

let tests =
  [
    test "program alignment and labels" alignment;
    test "per-kind deltas and noise bands" deltas;
    test "gate semantics per metric kind" gate;
    test "a file diffed against itself is clean" self_diff_is_clean;
    test "markdown and JSON renderings" renderings;
    test "non-bench inputs are rejected with the culprit named"
      rejects_non_bench;
    test "committed BENCH baseline self-diffs clean"
      committed_baseline_self_diff;
  ]
