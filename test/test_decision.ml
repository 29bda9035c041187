(** Tests for {!Fj_core.Decision} — the optimization decision ledger:
    every accepted {e and rejected} rewrite with its site and structured
    reason, collected per pipeline run and surfaced by [fjc explain]. *)

open Fj_core
open Util
module B = Builder

let scfg ?(inline_threshold = 60) () : Simplify.config =
  {
    Simplify.join_points = true;
    case_of_case = true;
    inline_threshold;
    dup_threshold = 12;
    datacons = Datacon.builtins;
  }

(* ------------------------------------------------------------------ *)
(* The collector                                                       *)
(* ------------------------------------------------------------------ *)

let ledger_basics () =
  let l = Decision.create () in
  Alcotest.(check bool) "disabled outside" false (Decision.enabled ());
  (* Recording with no ledger installed is a silent no-op. *)
  Decision.record ~pass:"nowhere" Decision.Cse ~site:"x" Decision.Fired;
  Alcotest.(check int) "no-op when uninstalled" 0 (Decision.length l);
  Decision.with_ledger l (fun () ->
      Alcotest.(check bool) "enabled inside" true (Decision.enabled ());
      Decision.record ~pass:"p" Decision.Inline ~site:"f" Decision.Fired;
      Decision.record ~pass:"p" Decision.Inline ~site:"g"
        (Decision.Rejected Decision.Loop_breaker));
  Alcotest.(check bool) "disabled after" false (Decision.enabled ());
  let events = Decision.events l in
  Alcotest.(check int) "two events" 2 (List.length events);
  (match events with
  | [ e1; e2 ] ->
      (* Oldest first. *)
      Alcotest.(check string) "first site" "f" e1.Decision.d_site;
      Alcotest.(check string) "second site" "g" e2.Decision.d_site
  | _ -> Alcotest.fail "expected exactly two events");
  Alcotest.(check int) "one fired" 1 (Decision.fired events);
  Alcotest.(check int) "one rejected" 1 (Decision.rejected events);
  Alcotest.(check (list (pair string int)))
    "reason counts" [ ("loop_breaker", 1) ]
    (Decision.reason_counts events)

let ledger_nesting () =
  let outer = Decision.create () and inner = Decision.create () in
  Decision.with_ledger outer (fun () ->
      Decision.record ~pass:"a" Decision.Cse ~site:"x" Decision.Fired;
      Decision.with_ledger inner (fun () ->
          Decision.record ~pass:"b" Decision.Cse ~site:"y" Decision.Fired);
      (* The outer ledger is restored after the inner extent. *)
      Decision.record ~pass:"a" Decision.Cse ~site:"z" Decision.Fired);
  Alcotest.(check int) "outer got two" 2 (Decision.length outer);
  Alcotest.(check int) "inner got one" 1 (Decision.length inner);
  Alcotest.(check string) "inner event" "y"
    (List.hd (Decision.events inner)).Decision.d_site

let ledger_snapshots () =
  let l = Decision.create () in
  Decision.with_ledger l (fun () ->
      Decision.record ~pass:"p" Decision.Demote ~site:"j1" Decision.Fired;
      let s = Decision.snapshot l in
      Decision.record ~pass:"p" Decision.Demote ~site:"j2" Decision.Fired;
      Decision.record ~pass:"p" Decision.Demote ~site:"j3" Decision.Fired;
      match Decision.events_since s l with
      | [ e2; e3 ] ->
          Alcotest.(check string) "delta oldest first" "j2" e2.Decision.d_site;
          Alcotest.(check string) "delta newest last" "j3" e3.Decision.d_site
      | es -> Alcotest.failf "expected a 2-event delta, got %d" (List.length es))

let summary_keys () =
  let mk action verdict =
    { Decision.d_pass = "p"; d_action = action; d_site = "s"; d_verdict = verdict }
  in
  let events =
    [
      mk Decision.Inline Decision.Fired;
      mk Decision.Inline Decision.Fired;
      mk Decision.Inline
        (Decision.Rejected (Decision.Inline_too_big { size = 9; threshold = 1 }));
      mk Decision.Contify (Decision.Rejected Decision.Nullary_candidate);
    ]
  in
  Alcotest.(check (list (pair string int)))
    "summary keys sorted"
    [
      ("contify:rejected:nullary_candidate", 1);
      ("inline:fired", 2);
      ("inline:rejected:inline_too_big", 1);
    ]
    (Decision.summary events)

(* ------------------------------------------------------------------ *)
(* Pass instrumentation on synthetic terms                             *)
(* ------------------------------------------------------------------ *)

(* A function too big to inline at threshold 1 but with two call sites:
   call-site inlining must ledger an [Inline_too_big] rejection quoting
   the size it measured and the threshold it compared against. *)
let inline_too_big_payload () =
  let big =
    B.lam "x" Types.int (fun x ->
        B.add x (B.add x (B.add x (B.add x (B.add x x)))))
  in
  let e =
    B.let_ "f" big (fun f ->
        B.add (B.app f (B.int 1)) (B.app f (B.int 2)))
  in
  let _ = lints e in
  let l = Decision.create () in
  let e' =
    Decision.with_ledger l (fun () ->
        Simplify.simplify (scfg ~inline_threshold:1 ()) e)
  in
  let _ = lints e' in
  let rejections =
    List.filter_map
      (fun (ev : Decision.event) ->
        match (ev.d_action, ev.d_verdict) with
        | ( Decision.Inline,
            Decision.Rejected (Decision.Inline_too_big { size; threshold }) ) ->
            Some (ev.d_site, size, threshold)
        | _ -> None)
      (Decision.events l)
  in
  Alcotest.(check bool) "at least one rejection" true (rejections <> []);
  List.iter
    (fun (site, size, threshold) ->
      Alcotest.(check string) "site is the binder" "f" site;
      Alcotest.(check int) "threshold quoted" 1 threshold;
      Alcotest.(check bool) "size exceeds threshold" true (size > threshold))
    rejections;
  (* At the default threshold the same unfolding fits: both call sites
     splice, and the ledger says so. *)
  let l2 = Decision.create () in
  let _ =
    Decision.with_ledger l2 (fun () -> Simplify.simplify (scfg ()) e)
  in
  let fired_inlines =
    List.filter
      (fun (ev : Decision.event) ->
        ev.d_action = Decision.Inline && ev.d_verdict = Decision.Fired)
      (Decision.events l2)
  in
  Alcotest.(check bool) "fits at default threshold" true (fired_inlines <> [])

(* Regression for the deliberate Fig. 5 divergence: a nullary multi-use
   candidate ([let x = 1 + 2 in if b then x else x] — every occurrence
   a tail "call" of shape (0,0)) is NOT contified, because a join point
   would re-evaluate the rhs at every jump where the let shares one
   thunk. The ledger must name the restriction. *)
let nullary_candidate_regression () =
  let e =
    B.let_ "x"
      (B.add (B.int 1) (B.int 2))
      (fun x -> B.if_ B.true_ x x)
  in
  let _ = lints e in
  let l = Decision.create () in
  let e' = Decision.with_ledger l (fun () -> fst (Contify.contify e)) in
  let _ = lints e' in
  (match e' with
  | Syntax.Let (Syntax.NonRec _, _) -> ()
  | _ -> Alcotest.fail "nullary candidate must stay a let");
  let hit =
    List.exists
      (fun (ev : Decision.event) ->
        ev.Decision.d_pass = "contify"
        && ev.d_action = Decision.Contify
        && ev.d_site = "x"
        && ev.d_verdict = Decision.Rejected Decision.Nullary_candidate)
      (Decision.events l)
  in
  Alcotest.(check bool) "ledger names the nullary restriction" true hit;
  (* A unary candidate with the same use pattern IS contified (and the
     ledger says Fired), so the rejection above is specifically the
     nullary rule. *)
  let e2 =
    B.let_ "f"
      (B.lam "y" Types.int (fun y -> B.add y (B.int 1)))
      (fun f ->
        B.if_ B.true_ (B.app f (B.int 1)) (B.app f (B.int 2)))
  in
  let _ = lints e2 in
  let l2 = Decision.create () in
  let e2' = Decision.with_ledger l2 (fun () -> fst (Contify.contify e2)) in
  let _ = lints e2' in
  let fired =
    List.exists
      (fun (ev : Decision.event) ->
        ev.Decision.d_action = Decision.Contify
        && ev.d_site = "f"
        && ev.d_verdict = Decision.Fired)
      (Decision.events l2)
  in
  Alcotest.(check bool) "unary candidate contifies" true fired

(* Bare pass invocations with no ledger installed still optimize
   identically — instrumentation must not change results. *)
let passes_unaffected_without_ledger () =
  let e =
    B.let_ "f"
      (B.lam "y" Types.int (fun y -> B.add y (B.int 1)))
      (fun f -> B.if_ B.true_ (B.app f (B.int 1)) (B.app f (B.int 2)))
  in
  let bare, _ = Contify.contify e in
  let l = Decision.create () in
  let under = Decision.with_ledger l (fun () -> fst (Contify.contify e)) in
  (* Fresh uniques differ between runs, so compare observationally:
     same shape, same size, same meaning. *)
  Alcotest.(check int) "same size" (Syntax.size bare) (Syntax.size under);
  Alcotest.(check int) "same join count" (Syntax.measure bare).Syntax.m_joins
    (Syntax.measure under).Syntax.m_joins;
  same_result bare under

(* ------------------------------------------------------------------ *)
(* Whole-pipeline invariants over the benchmark suite                  *)
(* ------------------------------------------------------------------ *)

(* Compile each bench program once and run the pipeline under both the
   baseline and the join-point configuration; share across tests. *)
let bench_reports =
  lazy
    (List.map
       (fun (pr : Bench_programs.program) ->
         let datacons, core = Bench_programs.compile pr in
         let reports =
           List.map
             (fun mode ->
               let _, r =
                 Pipeline.run_report
                   (Pipeline.default_config ~mode ~datacons ())
                   core
               in
               (mode, r))
             [ Pipeline.Baseline; Pipeline.Join_points ]
         in
         (pr.Bench_programs.name, core, datacons, reports))
       Bench_programs.all)

let tick_count r name =
  Option.value ~default:0 (List.assoc_opt name (Pipeline.ticks r))

let count_fired events action =
  List.length
    (List.filter
       (fun (ev : Decision.event) ->
         ev.d_action = action && ev.d_verdict = Decision.Fired)
       events)

(* The headline acceptance invariant: every [inline] and [contify] tick
   has exactly one matching Fired ledger entry — the ledger is a
   superset view of the tick counters, never out of sync with them. *)
let fired_matches_ticks () =
  List.iter
    (fun (name, _, _, reports) ->
      List.iter
        (fun (mode, r) ->
          let events = Pipeline.decisions r in
          let ctx = name ^ "/" ^ Pipeline.mode_name mode in
          Alcotest.(check int)
            (ctx ^ ": inline ticks = Fired Inline events")
            (tick_count r "inline")
            (count_fired events Decision.Inline);
          Alcotest.(check int)
            (ctx ^ ": contify ticks = Fired Contify events")
            (tick_count r "contify")
            (count_fired events Decision.Contify);
          Alcotest.(check int)
            (ctx ^ ": cse ticks = Fired Cse events")
            (tick_count r "cse")
            (count_fired events Decision.Cse))
        reports)
    (Lazy.force bench_reports)

(* The suite must exercise a diverse refusal surface: at least five
   distinct structured rejection reasons across the bench programs
   (ISSUE acceptance criterion for [fjc explain]). *)
let rejection_reason_diversity () =
  let reasons =
    List.fold_left
      (fun acc (_, _, _, reports) ->
        List.fold_left
          (fun acc (_, r) ->
            List.fold_left
              (fun acc (reason, _) -> reason :: acc)
              acc
              (Decision.reason_counts (Pipeline.decisions r)))
          acc reports)
      [] (Lazy.force bench_reports)
  in
  let distinct = List.sort_uniq String.compare reasons in
  if List.length distinct < 5 then
    Alcotest.failf "only %d distinct rejection reasons: %s"
      (List.length distinct)
      (String.concat ", " distinct)

(* Two identical runs over the same core term must produce
   byte-identical ledgers (fjc explain output is diffable). *)
let ledger_deterministic () =
  match Lazy.force bench_reports with
  | [] -> Alcotest.fail "no bench programs"
  | (_, core, datacons, _) :: _ ->
      let run () =
        let _, r =
          Pipeline.run_report
            (Pipeline.default_config ~mode:Pipeline.Join_points ~datacons ())
            core
        in
        Pipeline.decisions r
      in
      let a = run () and b = run () in
      Alcotest.(check int) "same length" (List.length a) (List.length b);
      Alcotest.(check bool) "identical event sequences" true (a = b)

(* Every JSON surface of the ledger serialises to well-formed JSON that
   our own parser round-trips. *)
let ledger_json_well_formed () =
  match Lazy.force bench_reports with
  | [] -> Alcotest.fail "no bench programs"
  | (_, _, _, reports) :: _ ->
      List.iter
        (fun (_, r) ->
          let events = Pipeline.decisions r in
          List.iter
            (fun ev ->
              let s = Telemetry.Json.to_string (Decision.event_json ev) in
              Alcotest.(check bool) "event json" true
                (Telemetry.Json.is_well_formed s))
            events;
          let s = Telemetry.Json.to_string (Decision.summary_json events) in
          Alcotest.(check bool) "summary json" true
            (Telemetry.Json.is_well_formed s);
          (match Telemetry.Json.parse (Pipeline.report_to_json r) with
          | Ok (Telemetry.Json.Obj fields) ->
              Alcotest.(check bool) "report has decisions" true
                (List.mem_assoc "decisions" fields)
          | Ok _ -> Alcotest.fail "report json is not an object"
          | Error m -> Alcotest.failf "report json does not parse: %s" m))
        reports

let tests =
  [
    test "ledger basics" ledger_basics;
    test "with_ledger nests" ledger_nesting;
    test "snapshots give per-pass deltas" ledger_snapshots;
    test "summary keys" summary_keys;
    test "inline_too_big quotes size and threshold" inline_too_big_payload;
    test "nullary candidate is refused, and says why"
      nullary_candidate_regression;
    test "passes unchanged without a ledger" passes_unaffected_without_ledger;
    test "every inline/contify/cse tick has a Fired entry"
      fired_matches_ticks;
    test "bench suite shows >= 5 distinct rejection reasons"
      rejection_reason_diversity;
    test "ledger is deterministic across runs" ledger_deterministic;
    test "ledger JSON is well-formed" ledger_json_well_formed;
  ]
