(** Tests for {!Fj_core.Gen} and {!Fj_core.Fuzz}: the generator is
    deterministic from a seed (the replay contract), produces only
    Lint-clean programs, the shrinker minimizes while preserving the
    failing predicate, the differential oracle passes on a healthy
    compiler and catches an injected pass bug. *)

open Fj_core
open Util

let seed_determinism () =
  (* Same seed, fresh supply: byte-identical programs, even across
     interleaved generations (the fjc replay contract). *)
  let a = Sexp.write (Gen.program_of_seed 7) in
  let _noise = Gen.program_of_seed 99 in
  let b = Sexp.write (Gen.program_of_seed 7) in
  Alcotest.(check string) "seed 7 replays" a b;
  let c = Sexp.write (Gen.program_of_seed 8) in
  Alcotest.(check bool) "distinct seeds differ" true (a <> c)

let generated_programs_lint () =
  for seed = 0 to 49 do
    let e = Gen.program_of_seed seed in
    match Lint.lint_result dc e with
    | Ok _ -> ()
    | Error err ->
        Alcotest.failf "seed %d does not lint: %a@.%s" seed Lint.pp_error err
          (Sexp.write e)
  done

let generated_programs_are_closed () =
  for seed = 0 to 49 do
    let e = Gen.program_of_seed seed in
    if not (Ident.Set.is_empty (Syntax.free_vars e)) then
      Alcotest.failf "seed %d is open: %s" seed (Sexp.write e)
  done

(* The size parameter is a budget, not a target; hunt for a seed that
   actually spent it so shrinking has something to do. *)
let large_program () =
  let rec pick seed =
    if seed > 200 then Alcotest.fail "no large generated program found"
    else
      let e = Gen.program_of_seed seed ~size:40 in
      if Syntax.size e > 20 then e else pick (seed + 1)
  in
  pick 0

let shrink_candidates_no_larger () =
  let e = large_program () in
  let n = Syntax.size e in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Fmt.str "candidate size %d <= %d" (Syntax.size c) n)
        true
        (Syntax.size c <= n))
    (Gen.shrink e)

let minimize_reaches_local_minimum () =
  (* A predicate any subterm-rich program satisfies: size above a
     floor. Minimize must end at a program still failing, no larger
     than the input, with no failing shrink candidate left. The size
     parameter is a budget, not a target, so hunt for a seed that
     actually spent it. *)
  let e = large_program () in
  let failing c = Lint.well_typed dc c && Syntax.size c > 3 in
  let m = Gen.minimize ~failing e in
  Alcotest.(check bool) "still failing" true (failing m);
  Alcotest.(check bool) "no larger" true (Syntax.size m <= Syntax.size e);
  Alcotest.(check bool) "locally minimal" true
    (not
       (List.exists
          (fun c -> Syntax.size c < Syntax.size m && failing c)
          (Gen.shrink m)));
  (* The failing node sits under a [case] in the body of a let whose
     function is used twice, so eliminating the let grows the term and
     the body alone is open: only a shrink inside the body, in place,
     reaches it. *)
  let module B = Builder in
  let e =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 1)))
      (fun f ->
        B.case (B.app f (B.int 1))
          [
            B.alt_lit (Literal.Int 0) (B.app f (B.int 2));
            B.alt_default (B.mul (B.int 3) (B.int 4));
          ])
  in
  let failing c =
    Lint.well_typed dc c && contains (Fmt.str "%a" Pretty.pp c) "*#"
  in
  let m = Gen.minimize ~failing e in
  Alcotest.(check int) "input size" 15 (Syntax.size e);
  Alcotest.(check string) "shrunk inside the let body" "*# 3 4"
    (Fmt.str "%a" Pretty.pp m)

let oracle_passes_on_healthy_compiler () =
  let s = Fuzz.run ~seed:1 ~count:40 () in
  Alcotest.(check int) "cases" 40 s.Fuzz.cases;
  (match s.Fuzz.failures with
  | [] -> ()
  | f :: _ -> Alcotest.failf "unexpected failure: %a" Fuzz.pp_failure f);
  Alcotest.(check bool) "mostly not skipped" true (s.Fuzz.passed > 30)

let oracle_catches_injected_bug () =
  let s =
    Fault.with_armed
      [ ("simplify/result", Fault.Ill_typed) ]
      (fun () -> Fuzz.run ~seed:1 ~count:3 ())
  in
  Alcotest.(check bool) "found the bug" true (s.Fuzz.failures <> []);
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.(check string) "classified as a pass abort" "pass-aborted"
        f.Fuzz.f_kind;
      (* The minimized counterexample must itself be a valid replayable
         program. *)
      Alcotest.(check bool) "counterexample lints" true
        (Lint.well_typed dc f.Fuzz.f_program);
      Alcotest.(check bool) "counterexample no larger" true
        (Syntax.size f.Fuzz.f_program <= f.Fuzz.f_size_orig))
    s.Fuzz.failures

let runaway_passes_fail_the_case () =
  (* The fuzzer compiles under [Recover], the harness that ships, and
     fails a case on any incident: a pass cut off by its fuel budget or
     by the size ceiling aborts the case like one that raises, its
     detail the incident as Guard prints it. *)
  List.iter
    (fun (behaviour, cause) ->
      let name = Fault.behaviour_name behaviour in
      match
        Fault.with_armed
          [ ("simplify/result", behaviour) ]
          (fun () -> Fuzz.check_program (Gen.program_of_seed 42))
      with
      | Fuzz.Fail { kind = "pass-aborted"; detail; _ } ->
          let prefix = Fmt.str "pass simplify (0) rolled back (%s: " cause in
          if not (String.starts_with ~prefix detail) then
            Alcotest.failf "%s: expected %S..., got %s" name prefix detail
      | Fuzz.Fail { kind; detail; _ } ->
          Alcotest.failf "%s: expected pass-aborted, got %s: %s" name kind
            detail
      | Fuzz.Pass -> Alcotest.failf "%s: the case passed" name
      | Fuzz.Skip m -> Alcotest.failf "%s: the case was skipped: %s" name m)
    [ (Fault.Burn_fuel, "fuel"); (Fault.Grow, "size") ]

let failure_json_shape () =
  let s =
    Fault.with_armed
      [ ("simplify/result", Fault.Raise) ]
      (fun () -> Fuzz.run ~seed:5 ~count:1 ())
  in
  match s.Fuzz.failures with
  | [] -> Alcotest.fail "expected a failure"
  | f :: _ -> (
      let str = Telemetry.Json.to_string (Fuzz.failure_json f) in
      match Telemetry.Json.parse str with
      | Error m -> Alcotest.failf "failure JSON does not parse: %s" m
      | Ok (Telemetry.Json.Obj fields) ->
          List.iter
            (fun k ->
              if not (List.mem_assoc k fields) then
                Alcotest.failf "failure JSON lacks %S" k)
            [ "seed"; "mode"; "kind"; "detail"; "size_orig"; "size_min";
              "program" ]
      | Ok _ -> Alcotest.fail "failure JSON is not an object")

let run_outcome_reifies_fuel () =
  (* Satellite: the evaluator's fuel exhaustion is an outcome, not an
     exception — the property a fuzz oracle over generated (possibly
     expensive) programs depends on. *)
  let _, loop =
    Fj_surface.Prelude.compile
      "def main = let rec go i = go (i + 1) in go 0"
  in
  (match Eval.run_outcome ~fuel:1_000 loop with
  | Eval.Fuel_exhausted -> ()
  | Eval.Finished _ -> Alcotest.fail "a divergent program finished"
  | Eval.Crashed m -> Alcotest.failf "a divergent program got stuck: %s" m);
  let _, fine = Fj_surface.Prelude.compile "def main = 1 + 2" in
  match Eval.run_outcome ~fuel:1_000 fine with
  | Eval.Finished (t, _) ->
      Alcotest.(check string) "answer" "3" (Fmt.str "%a" Eval.pp_tree t)
  | Eval.Fuel_exhausted -> Alcotest.fail "1 + 2 ran out of fuel"
  | Eval.Crashed m -> Alcotest.failf "1 + 2 got stuck: %s" m

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let recorder_heartbeats () =
  let hbs = ref [] in
  let r =
    Fuzz.recorder ~every:10 ~on_heartbeat:(fun hb -> hbs := hb :: !hbs) ()
  in
  let s = Fuzz.run ~recorder:r ~seed:0 ~count:25 () in
  (* Periodic at 10 and 20, final at 25. *)
  let hbs = List.rev !hbs in
  Alcotest.(check int) "heartbeat count" 3 (List.length hbs);
  Alcotest.(check (list int)) "progress points" [ 10; 20; 25 ]
    (List.map (fun hb -> hb.Fuzz.hb_cases) hbs);
  let last = List.nth hbs 2 in
  Alcotest.(check int) "total planned" 25 last.Fuzz.hb_total;
  Alcotest.(check int) "pass count matches summary" s.Fuzz.passed
    last.Fuzz.hb_passed;
  Alcotest.(check int) "incidents match summary"
    (List.length s.Fuzz.failures)
    last.Fuzz.hb_incidents;
  Alcotest.(check bool) "rate is positive" true (last.Fuzz.hb_rate > 0.0);
  Alcotest.(check bool) "case latency histogram snapshotted" true
    (List.mem_assoc "fuzz.case_ms" last.Fuzz.hb_histograms);
  (* The callback view and the recorder's retained list agree. *)
  Alcotest.(check int) "recorder retains them" 3
    (List.length (Fuzz.heartbeats r))

let recorder_final_heartbeat_on_short_runs () =
  (* Runs shorter than the period still end with one heartbeat. *)
  let r = Fuzz.recorder ~every:100 () in
  ignore (Fuzz.run ~recorder:r ~seed:3 ~count:4 ());
  match Fuzz.heartbeats r with
  | [ hb ] -> Alcotest.(check int) "covers the whole run" 4 hb.Fuzz.hb_cases
  | hbs -> Alcotest.failf "expected 1 heartbeat, got %d" (List.length hbs)

let recorder_ring_is_bounded () =
  let cap = 16 in
  let r = Fuzz.recorder ~ring_cap:cap ~every:max_int () in
  ignore (Fuzz.run ~recorder:r ~seed:0 ~count:30 ());
  Alcotest.(check bool)
    (Fmt.str "retained %d <= cap" (List.length (Fuzz.recent_spans r)))
    true
    (List.length (Fuzz.recent_spans r) <= cap);
  Alcotest.(check bool) "evictions counted" true (Fuzz.dropped_spans r > 0);
  (* Case latencies landed in the recorder's registry. *)
  match Metrics.histogram (Fuzz.recorder_metrics r) "fuzz.case_ms" with
  | Some s -> Alcotest.(check int) "every case observed" 30 s.Metrics.h_count
  | None -> Alcotest.fail "fuzz.case_ms histogram missing"

let heartbeat_and_flight_json_well_formed () =
  let r = Fuzz.recorder ~every:5 () in
  ignore (Fuzz.run ~recorder:r ~seed:1 ~count:10 ());
  List.iter
    (fun hb ->
      Alcotest.(check bool) "heartbeat JSON well-formed" true
        (Telemetry.Json.is_well_formed
           (Telemetry.Json.to_string (Fuzz.heartbeat_json hb))))
    (Fuzz.heartbeats r);
  let flight = Fuzz.flight_json r in
  Alcotest.(check bool) "flight JSON well-formed" true
    (Telemetry.Json.is_well_formed (Telemetry.Json.to_string flight));
  match flight with
  | Telemetry.Json.Obj fields ->
      List.iter
        (fun k ->
          if not (List.mem_assoc k fields) then
            Alcotest.failf "flight JSON lacks %S" k)
        [ "schema"; "traceEvents"; "dropped_spans"; "heartbeats"; "metrics" ];
      (match List.assoc "schema" fields with
      | Telemetry.Json.Str "fj-flight/1" -> ()
      | j ->
          Alcotest.failf "wrong schema: %s" (Telemetry.Json.to_string j))
  | _ -> Alcotest.fail "flight JSON is not an object"

(* ------------------------------------------------------------------ *)
(* Coverage-guided mode                                                *)
(* ------------------------------------------------------------------ *)

let mutants_are_well_typed () =
  (* Mutation must preserve closedness and typability — an ill-typed
     mutant would show up as a bogus counterexample. Read the program
     back through Sexp first so the ident supply is past every binder,
     exactly as the guided fuzzer does with pooled cases. *)
  let st = Random.State.make [| 0xbeef |] in
  for seed = 0 to 29 do
    let e = Sexp.read dc (Sexp.write (Gen.program_of_seed seed)) in
    let m = Gen.mutate st e in
    if not (Ident.Set.is_empty (Syntax.free_vars m)) then
      Alcotest.failf "mutant of seed %d is open" seed;
    (* Some operator draws can produce a shadowing-adjacent shape the
       lint rejects; the fuzzer filters those. Most must survive. *)
    ignore (Lint.well_typed dc m)
  done;
  let surviving = ref 0 in
  for seed = 0 to 29 do
    let e = Sexp.read dc (Sexp.write (Gen.program_of_seed seed)) in
    if Lint.well_typed dc (Gen.mutate st e) then incr surviving
  done;
  Alcotest.(check bool)
    (Fmt.str "most mutants lint (%d/30)" !surviving)
    true (!surviving >= 25)

let guided_run_accumulates_coverage () =
  let unguided = Coverage.create () and guided = Coverage.create () in
  let su = Fuzz.run ~cover:unguided ~seed:11 ~count:40 () in
  let sg = Fuzz.run ~cover:guided ~guided:true ~seed:11 ~count:40 () in
  Alcotest.(check int) "unguided is clean" 0 (List.length su.Fuzz.failures);
  Alcotest.(check int) "guided is clean" 0 (List.length sg.Fuzz.failures);
  Alcotest.(check bool) "guided retains interesting cases" true
    (sg.Fuzz.interesting > 0);
  Alcotest.(check bool) "guided coverage at least matches" true
    (Coverage.covered guided >= Coverage.covered unguided);
  Alcotest.(check int) "guided stays in-universe" 0
    (Coverage.unknown_hits guided)

let guided_run_replays () =
  (* The replay contract extends to guided mode: mutation draws come
     from a dedicated RNG derived from the run seed. *)
  let interesting run_seed =
    let acc = ref [] in
    let cover = Coverage.create () in
    ignore
      (Fuzz.run ~cover ~guided:true
         ~on_interesting:(fun s e -> acc := (s, Sexp.write e) :: !acc)
         ~seed:run_seed ~count:30 ());
    List.rev !acc
  in
  let a = interesting 5 and b = interesting 5 in
  Alcotest.(check int) "same retention count" (List.length a)
    (List.length b);
  List.iter2
    (fun (sa, ea) (sb, eb) ->
      Alcotest.(check int) "same case seed" sa sb;
      Alcotest.(check string) "same program" ea eb)
    a b

let tests =
  [
    test "generation is deterministic from the seed" seed_determinism;
    test "generated programs lint" generated_programs_lint;
    test "generated programs are closed" generated_programs_are_closed;
    test "shrink candidates never grow" shrink_candidates_no_larger;
    test "minimize reaches a local minimum" minimize_reaches_local_minimum;
    test "oracle passes on the healthy compiler" oracle_passes_on_healthy_compiler;
    test "oracle catches an injected pass bug" oracle_catches_injected_bug;
    test "failure JSON has the documented shape" failure_json_shape;
    test "evaluator fuel exhaustion is an outcome" run_outcome_reifies_fuel;
    test "recorder emits periodic and final heartbeats" recorder_heartbeats;
    test "short runs still get a final heartbeat"
      recorder_final_heartbeat_on_short_runs;
    test "flight ring is bounded, registry sees every case"
      recorder_ring_is_bounded;
    test "heartbeat and flight JSON are well-formed"
      heartbeat_and_flight_json_well_formed;
    test "mutants stay closed and mostly lint" mutants_are_well_typed;
    test "guided runs accumulate coverage" guided_run_accumulates_coverage;
    test "guided runs replay deterministically" guided_run_replays;
    test "runaway passes fail the case" runaway_passes_fail_the_case;
  ]
