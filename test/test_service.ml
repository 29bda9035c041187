(** Tests for the fault-tolerant compile service ({!Fj_service}):
    deterministic backoff, deadline watchdog, load shedding, the
    content-addressed cache (per-pass hook and request entry:
    round-trip, key, incident-free stores, integrity quarantine), the
    all-or-nothing attempt codec, the retry/degradation ladder, the
    worker crash rerun, [serve], and the acceptance criterion behind it
    all — batch outputs are byte-identical at any [--jobs] level, cold
    or warm cache, faults or no faults. *)

open Fj_core
module Service = Fj_service.Service
module Budget = Fj_service.Budget
module Cache = Fj_service.Cache
module Workqueue = Fj_service.Workqueue
module Shutdown = Fj_service.Shutdown

(* --- fixtures ------------------------------------------------------ *)

let tmp_root =
  lazy
    (let d =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "fj-service-test.%d" (Unix.getpid ()))
     in
     (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     d)

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d =
      Filename.concat (Lazy.force tmp_root)
        (Printf.sprintf "%s.%d" name !n)
    in
    Unix.mkdir d 0o755;
    d

(* Like {!Fault.with_armed} but with per-point fire limits (a
   transient fault that auto-disarms after N firings). *)
let with_faults arms f =
  Fault.reset_fired ();
  List.iter (fun (p, b, limit) -> Fault.arm ?limit p b) arms;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (p, _, _) -> Fault.disarm p) arms)
    f

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* Loop-heavy enough that the full pipeline has real work (ticks,
   decisions), small enough that a whole batch runs in milliseconds. *)
let src_loop =
  {|
def main =
  let rec go i acc =
    if i > 20 then acc
    else if odd i then go (i + 1) (acc + i * 3)
    else go (i + 1) acc
  in go 1 0
|}

let src_calls = {|
def main =
  let f x = x * 2 + 1 in
  f 3 + f 4 + f 5
|}

let src_branch =
  {|
def main =
  let pick n x y = if odd n then x + y else x - y in
  pick 1 10 3 + pick 2 10 3
|}

let one_request () =
  let dir = fresh_dir "req" in
  let p = Filename.concat dir "main.fj" in
  write_file p src_loop;
  p

(* A little corpus on disk: three valid programs and one ill-typed. *)
let corpus ?(with_bad = false) () =
  let dir = fresh_dir "corpus" in
  let add name content =
    let p = Filename.concat dir name in
    write_file p content;
    (Service.sanitize_id p, p)
  in
  let sources =
    [
      add "a_loop.fj" src_loop;
      add "b_calls.fj" src_calls;
      add "c_branch.fj" src_branch;
    ]
  in
  if with_bad then sources @ [ add "d_bad.fj" "def main = 1 + true\n" ]
  else sources

(* The bench corpus on disk, with the stream library prepended where a
   program uses it (as bench/main.ml writes it): 27 programs with
   enough pass work that any compile state shared between worker
   domains shows up in the artifacts. *)
let bench_corpus () =
  let dir = fresh_dir "bench" in
  List.map
    (fun (pr : Bench_programs.program) ->
      let p = Filename.concat dir (pr.name ^ ".fj") in
      write_file p
        ((if pr.uses_streams then Fj_fusion.Streams.source ^ "\n" else "")
        ^ pr.source);
      (Service.sanitize_id p, p))
    Bench_programs.all

(* The deterministic signature of an outcome: everything the .meta.json
   carries, nothing wall-clock. Two runs agree iff these agree. *)
let sig_of (o : Service.outcome) =
  let body =
    match o.status with
    | Service.Compiled a ->
        String.concat "\n"
          ([
             Service.rung_name a.Service.a_rung;
             string_of_int a.Service.a_output_size;
             a.Service.a_output;
           ]
          @ List.map
              (fun (k, n) -> Printf.sprintf "%s=%d" k n)
              a.Service.a_ticks
          @ List.map
              (fun e -> Telemetry.Json.to_string (Decision.event_json e))
              a.Service.a_decisions
          @ List.map
              (fun i -> Telemetry.Json.to_string (Guard.incident_json i))
              a.Service.a_incidents)
    | st -> Service.status_name st
  in
  o.Service.id ^ ":" ^ body

let batch_sig (b : Service.batch) =
  String.concat "\n----\n" (List.map sig_of b.Service.b_outcomes)

let config ?(jobs = 1) ?cache ?(attempts = 2) ?deadline ?(queue = 256)
    ?(isolate = false) ?(policy = Guard.Strict) () =
  let base = Service.default_config () in
  {
    base with
    Service.jobs;
    pipeline = { base.Service.pipeline with Pipeline.policy };
    queue_capacity = queue;
    attempts_per_rung = attempts;
    (* Keep retries fast: the ladder is exercised, the clock is not. *)
    backoff_base_ms = 0.1;
    backoff_max_ms = 0.5;
    budget = { base.Service.budget with Budget.wall_ms = deadline };
    cache;
    isolate;
  }

(* --- backoff ------------------------------------------------------- *)

let backoff_deterministic () =
  let b attempt id =
    Service.backoff_ms ~base_ms:25.0 ~max_ms:250.0 ~seed:7 ~id ~rung:"full"
      ~attempt
  in
  Alcotest.(check (float 0.0))
    "same inputs, same backoff" (b 0 "x") (b 0 "x");
  Alcotest.(check bool) "grows with attempt" true (b 1 "x" > b 0 "x");
  Alcotest.(check bool) "capped" true (b 10 "x" <= 250.0);
  Alcotest.(check bool)
    "base bounds below" true
    (b 0 "x" >= 25.0 && b 0 "x" < 25.0 *. 1.5);
  (* Different requests must not stampede in lockstep. *)
  let distinct =
    List.sort_uniq compare
      (List.map (fun id -> b 0 id) [ "a"; "b"; "c"; "d"; "e" ])
  in
  Alcotest.(check bool) "jitter varies by id" true (List.length distinct > 1)

(* --- budget -------------------------------------------------------- *)

let deadline_check_expires () =
  let spec = { Budget.default_spec with Budget.wall_ms = Some 1.0 } in
  let t = Budget.start spec in
  Budget.burn ~cap_ms:50.0 t;
  Alcotest.(check bool) "expired" true (Budget.expired t);
  (match Budget.check t with
  | () -> Alcotest.fail "check should raise after the deadline"
  | exception Budget.Deadline_exceeded _ -> ());
  (* No deadline: never expires, check never raises. *)
  let t' = Budget.start Budget.default_spec in
  Budget.check t';
  Alcotest.(check bool) "no deadline" false (Budget.expired t')

let deadline_watchdog_fires () =
  let spec = { Budget.default_spec with Budget.wall_ms = Some 2.0 } in
  let t = Budget.start spec in
  match
    Budget.with_watchdog t (fun () ->
        (* A runaway "pass": ticks forever, never checks the clock
           itself. The watchdog must interrupt it. *)
        let deadline_guard = Telemetry.now_ms () +. 5_000.0 in
        while Telemetry.now_ms () < deadline_guard do
          Telemetry.tick Telemetry.Beta_tau
        done;
        `Ran_to_completion)
  with
  | `Ran_to_completion -> Alcotest.fail "watchdog never fired"
  | exception Budget.Deadline_exceeded _ -> ()

(* The watchdog must keep firing inside a pass whose Guard fuel meter
   is also installed — observers chain, not replace. *)
let observers_chain () =
  let outer = ref 0 and inner = ref 0 in
  Telemetry.with_observer
    (fun n -> outer := !outer + n)
    (fun () ->
      Telemetry.with_observer
        (fun n -> inner := !inner + n)
        (fun () -> Telemetry.tick ~n:3 Telemetry.Beta_tau));
  Alcotest.(check int) "inner observer saw the tick" 3 !inner;
  Alcotest.(check int) "outer observer saw it too" 3 !outer

(* --- workqueue ----------------------------------------------------- *)

let queue_sheds_at_capacity () =
  let q = Workqueue.create ~capacity:2 in
  Alcotest.(check bool) "first" true (Workqueue.try_push q 1 = `Ok);
  Alcotest.(check bool) "second" true (Workqueue.try_push q 2 = `Ok);
  Alcotest.(check bool) "third is shed" true (Workqueue.try_push q 3 = `Shed);
  Alcotest.(check (option int)) "fifo" (Some 1) (Workqueue.pop q);
  Workqueue.close q;
  Alcotest.(check bool) "closed refuses" true (Workqueue.try_push q 4 = `Closed);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Workqueue.pop q);
  Alcotest.(check (option int)) "then signals exit" None (Workqueue.pop q)

(* --- cache --------------------------------------------------------- *)

let some_expr () =
  let _denv, core = Fj_surface.Prelude.compile src_calls in
  core

let cache_round_trip () =
  let dir = fresh_dir "cache" in
  let c = Cache.create ~dir () in
  let hook = Cache.pass_cache c ~fingerprint:"test" ~datacons:Datacon.builtins in
  let input = some_expr () in
  let cp =
    {
      Pipeline.cp_output = input;
      cp_ident_after = 123;
      cp_ticks = [ ("beta", 4); ("case_of_known", 1) ];
      cp_decisions = [];
    }
  in
  Alcotest.(check bool)
    "cold miss" true
    (hook.Pipeline.cache_lookup ~pass:"simplify" ~supply:7 ~input = None);
  hook.Pipeline.cache_store ~pass:"simplify" ~supply:7 ~input cp;
  (match hook.Pipeline.cache_lookup ~pass:"simplify" ~supply:7 ~input with
  | None -> Alcotest.fail "warm lookup missed"
  | Some got ->
      Alcotest.(check int) "ident_after" 123 got.Pipeline.cp_ident_after;
      Alcotest.(check (list (pair string int)))
        "ticks" cp.Pipeline.cp_ticks got.Pipeline.cp_ticks;
      Alcotest.(check string)
        "output round-trips" (Sexp.write input)
        (Sexp.write got.Pipeline.cp_output));
  (* A different supply position is a different key. *)
  Alcotest.(check bool)
    "supply is in the key" true
    (hook.Pipeline.cache_lookup ~pass:"simplify" ~supply:8 ~input = None);
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "stores" 1 s.Cache.stores;
  (* The service's request entry: one lookup per request. *)
  let path = one_request () in
  let c = Cache.create ~dir:(fresh_dir "cache") () in
  let cfg = config ~cache:c ~policy:Guard.Recover () in
  let counts () =
    let s = Cache.stats c in
    (s.Cache.hits, s.Cache.misses, s.Cache.stores)
  in
  let hms = Alcotest.(triple int int int) in
  let cold = Service.process_one cfg ~id:"r" ~path in
  Alcotest.check hms "cold: one miss, one store" (0, 1, 1) (counts ());
  (* Under Recover an armed pass fault would surface as an incident:
     its absence proves the warm call ran no pass. *)
  let warm =
    with_faults
      [ ("simplify/result", Fault.Raise, None) ]
      (fun () -> Service.process_one cfg ~id:"r" ~path)
  in
  Alcotest.check hms "warm: one hit, no store" (1, 1, 1) (counts ());
  Alcotest.(check string) "warm = cold, byte-for-byte" (sig_of cold) (sig_of warm);
  Alcotest.(check (list string)) "no pass ran" [] (Fault.fired ());
  (* What can change the output is in the key: the source bytes and
     every fingerprinted flag. *)
  let inline cfg n =
    { cfg with Service.pipeline = { cfg.Service.pipeline with Pipeline.inline_threshold = n } }
  in
  ignore (Service.process_one (inline cfg 7) ~id:"r" ~path);
  Alcotest.check hms "inline_threshold is in the key" (1, 2, 2) (counts ());
  write_file path (src_loop ^ "\n");
  ignore (Service.process_one cfg ~id:"r" ~path);
  Alcotest.check hms "one appended byte is a new key" (1, 3, 3) (counts ())

(* A Full result that carries incidents records an armed fault, not
   the source: it is not stored, so a clean rerun recompiles. *)
let cache_skips_incidents () =
  let path = one_request () in
  let c = Cache.create ~dir:(fresh_dir "cache") () in
  let cfg = config ~cache:c ~policy:Guard.Recover () in
  let faulted =
    with_faults
      [ ("simplify/result", Fault.Raise, None) ]
      (fun () -> Service.process_one cfg ~id:"r" ~path)
  in
  (match faulted.Service.status with
  | Service.Compiled a ->
      Alcotest.(check string) "full rung" "full" (Service.rung_name a.Service.a_rung);
      Alcotest.(check bool) "with incidents" true (a.Service.a_incidents <> [])
  | st -> Alcotest.failf "expected compiled, got %s" (Service.status_name st));
  Alcotest.(check int) "not stored" 0 (Cache.stats c).Cache.stores;
  let rerun = Service.process_one cfg ~id:"r" ~path in
  let clean = Service.process_one (config ~policy:Guard.Recover ()) ~id:"r" ~path in
  Alcotest.(check string) "clean rerun: no incidents" (sig_of clean) (sig_of rerun);
  Alcotest.(check int) "the clean result is stored" 1 (Cache.stats c).Cache.stores

(* The attempt codec refuses a payload it cannot decode in full. *)
let attempt_codec_all_or_nothing () =
  let a =
    match (Service.process_one (config ()) ~id:"r" ~path:(one_request ())).Service.status with
    | Service.Compiled a -> a
    | st -> Alcotest.failf "expected compiled, got %s" (Service.status_name st)
  in
  Alcotest.(check bool) "has decisions" true (a.Service.a_decisions <> []);
  let j = Service.attempt_ok_json a in
  (match Service.attempt_ok_of_json j with
  | Some a' ->
      Alcotest.(check string)
        "round-trips" (Telemetry.Json.to_string j)
        (Telemetry.Json.to_string (Service.attempt_ok_json a'))
  | None -> Alcotest.fail "a well-formed payload was refused");
  let fields = match j with Telemetry.Json.Obj fs -> fs | _ -> assert false in
  let with_field k v = Telemetry.Json.Obj ((k, v) :: List.remove_assoc k fields) in
  let mangled =
    match List.assoc "decisions" fields with
    | Telemetry.Json.Arr (Telemetry.Json.Obj d :: rest) ->
        with_field "decisions"
          (Telemetry.Json.Arr
             (Telemetry.Json.Obj
                (("verdict", Telemetry.Json.Str "mangled") :: List.remove_assoc "verdict" d)
             :: rest))
    | _ -> Alcotest.fail "decisions are not an array of objects"
  in
  Alcotest.(check bool)
    "one mangled verdict refuses the payload" true
    (Service.attempt_ok_of_json mangled = None);
  Alcotest.(check bool)
    "a missing field refuses it too" true
    (Service.attempt_ok_of_json
       (Telemetry.Json.Obj (List.remove_assoc "incidents" fields))
    = None)

let cache_quarantines_corruption () =
  let dir = fresh_dir "cache" in
  let c = Cache.create ~dir () in
  let hook = Cache.pass_cache c ~fingerprint:"test" ~datacons:Datacon.builtins in
  let input = some_expr () in
  let cp =
    {
      Pipeline.cp_output = input;
      cp_ident_after = 1;
      cp_ticks = [];
      cp_decisions = [];
    }
  in
  (* The service/cache fault corrupts the payload on its way to disk;
     the read path's re-hash must refuse to serve it. *)
  Fault.with_armed
    [ ("service/cache", Fault.Raise) ]
    (fun () -> hook.Pipeline.cache_store ~pass:"simplify" ~supply:0 ~input cp);
  Alcotest.(check bool)
    "corrupt entry never served" true
    (hook.Pipeline.cache_lookup ~pass:"simplify" ~supply:0 ~input = None);
  Alcotest.(check int)
    "and is quarantined" 1 (Cache.stats c).Cache.quarantined;
  Alcotest.(check int)
    "quarantine holds the evidence" 1
    (List.length (Cache.quarantine_entries c));
  (* Recompute-and-store heals the entry. *)
  hook.Pipeline.cache_store ~pass:"simplify" ~supply:0 ~input cp;
  Alcotest.(check bool)
    "healed" true
    (hook.Pipeline.cache_lookup ~pass:"simplify" ~supply:0 ~input <> None);
  (* The request entry: same verdict, and the recompile is the clean
     output. *)
  let path = one_request () in
  let c = Cache.create ~dir:(fresh_dir "cache") () in
  let cfg = config ~cache:c () in
  let clean = Service.process_one (config ()) ~id:"r" ~path in
  ignore
    (with_faults
       [ ("service/cache", Fault.Raise, Some 1) ]
       (fun () -> Service.process_one cfg ~id:"r" ~path));
  let recompiled = Service.process_one cfg ~id:"r" ~path in
  Alcotest.(check int) "request entry quarantined" 1 (Cache.stats c).Cache.quarantined;
  Alcotest.(check int) "and missed" 0 (Cache.stats c).Cache.hits;
  Alcotest.(check string) "recompiled = clean" (sig_of clean) (sig_of recompiled);
  let healed = Service.process_one cfg ~id:"r" ~path in
  Alcotest.(check int) "the healed entry hits" 1 (Cache.stats c).Cache.hits;
  Alcotest.(check string) "and serves the clean output" (sig_of clean) (sig_of healed)

(* --- the ladder ---------------------------------------------------- *)

let rejects_permanently () =
  let dir = fresh_dir "req" in
  let p = Filename.concat dir "bad.fj" in
  write_file p "def main = 1 + true\n";
  let o = Service.process_one (config ()) ~id:"bad" ~path:p in
  (match o.Service.status with
  | Service.Rejected { kind; _ } ->
      Alcotest.(check string) "kind" "type-error" kind
  | st -> Alcotest.failf "expected rejection, got %s" (Service.status_name st));
  Alcotest.(check int)
    "no retries for a permanent failure" 0
    (List.length o.Service.failures);
  (* Missing file: same taxonomy. *)
  let o =
    Service.process_one (config ()) ~id:"gone"
      ~path:(Filename.concat dir "nope.fj")
  in
  match o.Service.status with
  | Service.Rejected { kind; _ } ->
      Alcotest.(check string) "unreadable" "unreadable" kind
  | st -> Alcotest.failf "expected rejection, got %s" (Service.status_name st)

(* service/slow-pass with a deadline: each firing burns one attempt.
   One firing -> retry on the same rung succeeds; enough firings to
   exhaust Full -> the request degrades; unlimited -> exhausted. *)
let ladder_retries_then_degrades () =
  let path = one_request () in
  let cfg = config ~attempts:1 ~deadline:30.0 () in
  let outcome limit =
    with_faults
      [ ("service/slow-pass", Fault.Raise, limit) ]
      (fun () -> Service.process_one cfg ~id:"r" ~path)
  in
  (* One deadline burn: Full's single attempt fails, Degraded runs
     clean. *)
  let o = outcome (Some 1) in
  (match o.Service.status with
  | Service.Compiled a ->
      Alcotest.(check string)
        "degraded to baseline" "baseline"
        (Service.rung_name a.Service.a_rung)
  | st -> Alcotest.failf "expected compiled, got %s" (Service.status_name st));
  (match o.Service.failures with
  | [ f ] ->
      Alcotest.(check string) "cause" "deadline" f.Service.f_cause;
      Alcotest.(check string) "rung" "full" f.Service.f_rung
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs));
  (* Two burns: check-only still answers. *)
  (let o = outcome (Some 2) in
   match o.Service.status with
   | Service.Compiled a ->
       Alcotest.(check string)
         "check-only floor" "check-only"
         (Service.rung_name a.Service.a_rung)
   | st -> Alcotest.failf "expected compiled, got %s" (Service.status_name st));
  (* Unlimited: every rung exhausted -- still a structured outcome. *)
  let o = outcome None in
  match o.Service.status with
  | Service.Exhausted _ ->
      Alcotest.(check int)
        "a failure per rung" 3
        (List.length o.Service.failures)
  | st -> Alcotest.failf "expected exhausted, got %s" (Service.status_name st)

let retry_same_rung_absorbs_transient () =
  let path = one_request () in
  (* attempts 2: the first attempt burns the deadline, the second (the
     fault has auto-disarmed) completes on the Full rung. *)
  let cfg = config ~attempts:2 ~deadline:30.0 () in
  let o =
    with_faults
      [ ("service/slow-pass", Fault.Raise, Some 1) ]
      (fun () -> Service.process_one cfg ~id:"r" ~path)
  in
  match o.Service.status with
  | Service.Compiled a ->
      Alcotest.(check string)
        "still full pipeline" "full"
        (Service.rung_name a.Service.a_rung);
      Alcotest.(check int) "one absorbed failure" 1
        (List.length o.Service.failures)
  | st -> Alcotest.failf "expected compiled, got %s" (Service.status_name st)

(* --- batch determinism (the acceptance criterion) ------------------ *)

let batch_deterministic_across_jobs () =
  let sources = corpus ~with_bad:true () @ bench_corpus () in
  let b1 = Service.run_batch (config ~jobs:1 ()) sources in
  List.iter
    (fun jobs ->
      let b = Service.run_batch (config ~jobs ()) sources in
      Alcotest.(check string)
        (Printf.sprintf "jobs 1 and jobs %d agree byte-for-byte" jobs)
        (batch_sig b1) (batch_sig b))
    [ 2; 8 ]

let batch_deterministic_cold_vs_warm () =
  let sources = corpus () in
  let dir = fresh_dir "cache" in
  let b0 = Service.run_batch (config ()) sources in
  let cold_cache = Cache.create ~dir () in
  let b_cold = Service.run_batch (config ~cache:cold_cache ()) sources in
  let warm_cache = Cache.create ~dir () in
  let b_warm = Service.run_batch (config ~cache:warm_cache ()) sources in
  Alcotest.(check string)
    "cacheless and cold agree" (batch_sig b0) (batch_sig b_cold);
  Alcotest.(check string)
    "cold and warm agree" (batch_sig b_cold) (batch_sig b_warm);
  let warm = Cache.stats warm_cache in
  Alcotest.(check (triple int int int))
    "warm: every request hits its one entry, nothing stored"
    (List.length sources, 0, 0)
    (warm.Cache.hits, warm.Cache.misses, warm.Cache.stores);
  Alcotest.(check int)
    "nothing quarantined" 0 (Cache.stats warm_cache).Cache.quarantined

let batch_deterministic_under_faults () =
  let sources = corpus () in
  let clean = Service.run_batch (config ~jobs:1 ()) sources in
  let dir = fresh_dir "cache" in
  let cache = Cache.create ~dir () in
  let faulted =
    with_faults
      [
        ("service/worker", Fault.Raise, Some 1);
        ("service/cache", Fault.Raise, Some 2);
      ]
      (fun () ->
        Service.run_batch (config ~jobs:4 ~cache ~deadline:2_000.0 ()) sources)
  in
  Alcotest.(check string)
    "fault drill matches the fault-free jobs-1 run byte-for-byte"
    (batch_sig clean) (batch_sig faulted);
  Alcotest.(check bool)
    "the crash was supervised" true
    (faulted.Service.b_respawns >= 1)

let worker_crash_is_rerun () =
  let sources = corpus () in
  let b =
    with_faults
      [ ("service/worker", Fault.Raise, Some 2) ]
      (fun () -> Service.run_batch (config ~jobs:2 ()) sources)
  in
  Alcotest.(check int) "two respawns" 2 b.Service.b_respawns;
  List.iter
    (fun (o : Service.outcome) ->
      match o.Service.status with
      | Service.Compiled _ -> ()
      | st ->
          Alcotest.failf "%s: expected compiled, got %s" o.Service.id
            (Service.status_name st))
    b.Service.b_outcomes;
  let crashes =
    List.concat_map (fun (o : Service.outcome) -> o.Service.failures)
      b.Service.b_outcomes
    |> List.filter (fun (f : Service.failure) ->
           String.equal f.Service.f_cause "worker-crash")
  in
  Alcotest.(check int) "both crashes on record" 2 (List.length crashes)

let batch_sheds_deterministically () =
  let sources = corpus () in
  let run () = Service.run_batch (config ~jobs:4 ~queue:2 ()) sources in
  let shed_ids b =
    List.filter_map
      (fun (o : Service.outcome) ->
        match o.Service.status with
        | Service.Shed -> Some o.Service.id
        | _ -> None)
      b.Service.b_outcomes
  in
  let a = run () and b = run () in
  Alcotest.(check (list string))
    "the shed set is a function of input order, not scheduling"
    (shed_ids a) (shed_ids b);
  Alcotest.(check int) "exactly the overflow is shed" 1
    (List.length (shed_ids a));
  Alcotest.(check int) "shed batches exit 3" 3 (Service.batch_exit_code a)

(* Every failure in a batch, oldest first within each request. *)
let failures (b : Service.batch) =
  List.concat_map
    (fun (o : Service.outcome) ->
      List.map
        (fun (f : Service.failure) ->
          Printf.sprintf "%s %s/%d %s: %s" o.Service.id f.Service.f_rung
            f.Service.f_attempt f.Service.f_cause f.Service.f_detail)
        o.Service.failures)
    b.Service.b_outcomes

let causes (b : Service.batch) =
  List.concat_map
    (fun (o : Service.outcome) ->
      List.map
        (fun (f : Service.failure) -> f.Service.f_cause)
        o.Service.failures)
    b.Service.b_outcomes

let all_compiled what (b : Service.batch) =
  List.iter
    (fun (o : Service.outcome) ->
      match o.Service.status with
      | Service.Compiled _ -> ()
      | st ->
          Alcotest.failf "%s: %s: expected compiled, got %s" what o.Service.id
            (Service.status_name st))
    b.Service.b_outcomes

let isolate_matches_inline () =
  let sources = corpus () in
  let both faults =
    let run isolate =
      with_faults faults (fun () ->
          Service.run_batch (config ~isolate ()) sources)
    in
    (run false, run true)
  in
  let inline_b, forked = both [] in
  Alcotest.(check string)
    "fork-per-request agrees with in-process byte-for-byte"
    (batch_sig inline_b) (batch_sig forked);
  (* A point a child fires counts down the parent's fire limit, so the
     fault fires once in all, as it does in process. *)
  let inline_b, forked = both [ ("simplify/result", Fault.Raise, Some 1) ] in
  Alcotest.(check string)
    "and under a fire-limited pass fault" (batch_sig inline_b)
    (batch_sig forked);
  Alcotest.(check (list string))
    "one injected failure" [ "injected" ] (causes inline_b);
  Alcotest.(check (list string))
    "the same failure isolated" (failures inline_b) (failures forked);
  (* The parent claims a worker crash; the child dies of it. *)
  let inline_b, forked = both [ ("service/worker", Fault.Raise, Some 1) ] in
  List.iter
    (fun (what, b) ->
      all_compiled what b;
      Alcotest.(check (list string))
        (what ^ ": one worker crash") [ "worker-crash" ] (causes b))
    [ ("in process", inline_b); ("isolated", forked) ]

(* --- shutdown ------------------------------------------------------ *)

let shutdown_exit_codes () =
  Alcotest.(check int) "SIGINT" 130 (Shutdown.exit_code Shutdown.Interrupt);
  Alcotest.(check int) "SIGTERM" 143 (Shutdown.exit_code Shutdown.Terminate)

let fuzz_should_stop_drains () =
  let ran = ref 0 in
  let s =
    Fuzz.run ~size:10
      ~on_case:(fun _ _ -> incr ran)
      ~should_stop:(fun () -> !ran >= 3)
      ~seed:1 ~count:50 ()
  in
  Alcotest.(check int) "stopped after the case in flight" 3 s.Fuzz.cases;
  Alcotest.(check int) "nothing abandoned mid-case" 3 !ran

(* A source that ends inside an escaped character literal is a parse
   error: rejected on the first attempt, not retried as a transient. *)
let truncated_char_literal_rejected () =
  let dir = fresh_dir "req" in
  let p = Filename.concat dir "eof.fj" in
  write_file p "def main = '\\n";
  let cfg = config () in
  let b = Service.run_batch cfg [ ("eof", p) ] in
  let row =
    match Service.batch_json cfg b with
    | Telemetry.Json.Obj fields -> (
        match List.assoc_opt "rows" fields with
        | Some (Telemetry.Json.Arr [ Telemetry.Json.Obj row ]) -> row
        | _ -> Alcotest.fail "expected one row")
    | _ -> Alcotest.fail "results are not an object"
  in
  let field k =
    match List.assoc_opt k row with
    | Some (Telemetry.Json.Str s) -> s
    | _ -> Alcotest.failf "row has no string %s" k
  in
  Alcotest.(check string) "status" "rejected" (field "status");
  Alcotest.(check string) "kind" "parse-error" (field "kind");
  Alcotest.(check bool) "no failed attempts" true
    (List.assoc_opt "failures" row = Some (Telemetry.Json.Arr []))

(* --- crash rerun, serve, .sexp input --------------------------------- *)

(* A crash is rerun by the worker that saw it, so it cannot lose a
   request to a queue that has already closed and drained. *)
let crash_on_only_request () =
  let b =
    with_faults
      [ ("service/worker", Fault.Raise, Some 1) ]
      (fun () -> Service.run_batch (config ()) [ ("r", one_request ()) ])
  in
  all_compiled "only request" b;
  Alcotest.(check (list string))
    "one crash on record"
    [ "r pool/0 worker-crash: Fj_core.Fault.Injected(\"service/worker\")" ]
    (failures b);
  Alcotest.(check int) "one respawn" 1 b.Service.b_respawns;
  Alcotest.(check int) "exit 0" 0 (Service.batch_exit_code b)

(* A request that crashes every time is dropped after exactly three
   crashes, numbered per request. *)
let poison_requests_capped () =
  let b =
    with_faults
      [ ("service/worker", Fault.Raise, None) ]
      (fun () -> Service.run_batch (config ()) (corpus ()))
  in
  List.iter
    (fun (o : Service.outcome) ->
      (match o.Service.status with
      | Service.Dropped _ -> ()
      | st ->
          Alcotest.failf "%s: expected dropped, got %s" o.Service.id
            (Service.status_name st));
      Alcotest.(check (list (pair string int)))
        (o.Service.id ^ ": three crashes")
        [ ("worker-crash", 0); ("worker-crash", 1); ("worker-crash", 2) ]
        (List.map
           (fun (f : Service.failure) ->
             (f.Service.f_cause, f.Service.f_attempt))
           o.Service.failures))
    b.Service.b_outcomes;
  Alcotest.(check int) "three per request" 9 b.Service.b_respawns

(* [serve] answers each request line once, with the id it was sent
   under, and a worker crash costs a rerun, not an answer. *)
let serve_answers_each_request () =
  let path = one_request () in
  let dir = fresh_dir "serve" in
  let requests = Filename.concat dir "requests" in
  let responses = Filename.concat dir "responses" in
  write_file requests
    (String.concat "\n" [ path; "x\t" ^ path; "no/such.fj" ] ^ "\n");
  let stopped =
    In_channel.with_open_bin requests (fun input ->
        Out_channel.with_open_bin responses (fun output ->
            with_faults
              [ ("service/worker", Fault.Raise, Some 1) ]
              (fun () -> Service.serve (config ()) ~input ~output)))
  in
  Alcotest.(check bool) "returns at end of input" true (stopped = None);
  let answer line =
    match Telemetry.Json.parse line with
    | Ok (Telemetry.Json.Obj fields) ->
        let str k =
          match List.assoc_opt k fields with
          | Some (Telemetry.Json.Str s) -> s
          | _ -> "-"
        in
        (str "id", str "status", str "error")
    | _ -> Alcotest.failf "not a JSON object: %s" line
  in
  let answers =
    In_channel.with_open_bin responses In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map answer
  in
  Alcotest.(check (list (triple string string string)))
    "compiled, compiled, unreadable"
    (List.sort compare
       [
         (Service.sanitize_id path, "compiled", "-");
         ("x", "compiled", "-");
         ("no_such.fj", "rejected", "unreadable");
       ])
    (List.sort compare answers)

(* Core sent as a .sexp is linted like an elaborated .fj source, on a
   copy of the unique supply: ill-typed Core is rejected, and
   well-typed Core compiles to the bytes it would unlinted. *)
let sexp_input_linted () =
  let dir = fresh_dir "req" in
  let p = Filename.concat dir "bad.sexp" in
  write_file p "(app (lit (int 0)) (lit (int 1)))\n";
  let cfg = config () in
  let b = Service.run_batch cfg [ ("bad", p) ] in
  (match b.Service.b_outcomes with
  | [ { Service.status = Service.Rejected { kind; _ }; failures; _ } ] ->
      Alcotest.(check string) "kind" "ill-typed" kind;
      Alcotest.(check int) "no failures" 0 (List.length failures)
  | _ -> Alcotest.fail "expected one rejected outcome");
  Alcotest.(check int) "exit 1" 1 (Service.batch_exit_code b);
  let pipeline =
    {
      cfg.Service.pipeline with
      Pipeline.datacons = Datacon.builtins;
      limits = Budget.limits cfg.Service.budget;
    }
  in
  for seed = 1 to 20 do
    let text =
      Context.with_fresh (fun () ->
          Sexp.write (Gen.program_of_seed ~size:40 seed))
    in
    let p = Filename.concat dir (Printf.sprintf "gen-%d.sexp" seed) in
    write_file p text;
    let unlinted =
      Context.with_fresh (fun () ->
          let core = Sexp.read Datacon.builtins text in
          Sexp.write (fst (Pipeline.run_report pipeline core)))
    in
    match (Service.process_one cfg ~id:"gen" ~path:p).Service.status with
    | Service.Compiled a ->
        Alcotest.(check string)
          (Printf.sprintf "gen %d: as unlinted" seed)
          unlinted a.Service.a_output
    | st ->
        Alcotest.failf "gen %d: expected compiled, got %s" seed
          (Service.status_name st)
  done

let tests =
  [
    Alcotest.test_case "backoff: deterministic, jittered, capped" `Quick
      backoff_deterministic;
    Alcotest.test_case "budget: deadline expires" `Quick
      deadline_check_expires;
    Alcotest.test_case "budget: watchdog interrupts a runaway pass" `Quick
      deadline_watchdog_fires;
    Alcotest.test_case "telemetry: observers chain" `Quick observers_chain;
    Alcotest.test_case "workqueue: sheds, drains" `Quick
      queue_sheds_at_capacity;
    Alcotest.test_case "cache: round-trip, supply in key" `Quick
      cache_round_trip;
    Alcotest.test_case "cache: corruption quarantined, never served" `Quick
      cache_quarantines_corruption;
    Alcotest.test_case "ladder: permanent failures reject immediately" `Quick
      rejects_permanently;
    Alcotest.test_case "ladder: retry, degrade, exhaust" `Quick
      ladder_retries_then_degrades;
    Alcotest.test_case "ladder: transient absorbed on the same rung" `Quick
      retry_same_rung_absorbs_transient;
    (* Must run before any test that spawns a domain: Unix.fork (and
       so --isolate) is refused for the rest of the process once a
       domain has ever been created. *)
    Alcotest.test_case "batch: --isolate agrees with in-process" `Quick
      isolate_matches_inline;
    Alcotest.test_case "batch: jobs 1 = jobs 8, byte-for-byte" `Quick
      batch_deterministic_across_jobs;
    Alcotest.test_case "batch: cacheless = cold = warm, hit rate > 50%"
      `Quick batch_deterministic_cold_vs_warm;
    Alcotest.test_case "batch: fault drill matches fault-free run" `Quick
      batch_deterministic_under_faults;
    Alcotest.test_case "batch: crashed worker respawned and requeued" `Quick
      worker_crash_is_rerun;
    Alcotest.test_case "batch: load shedding is deterministic" `Quick
      batch_sheds_deterministically;
    Alcotest.test_case "shutdown: documented exit codes" `Quick
      shutdown_exit_codes;
    Alcotest.test_case "fuzz: should_stop drains gracefully" `Quick
      fuzz_should_stop_drains;
    Alcotest.test_case "cache: results with incidents are not stored" `Quick
      cache_skips_incidents;
    Alcotest.test_case "codec: one bad decision refuses the payload" `Quick
      attempt_codec_all_or_nothing;
    Alcotest.test_case "batch: truncated char literal is a parse error" `Quick
      truncated_char_literal_rejected;
    Alcotest.test_case "batch: a crash on the only request is rerun" `Quick
      crash_on_only_request;
    Alcotest.test_case "batch: a poison request is dropped after 3 crashes"
      `Quick poison_requests_capped;
    Alcotest.test_case "serve: one answer per request, crash rerun" `Quick
      serve_answers_each_request;
    Alcotest.test_case "batch: .sexp input is linted, output unchanged" `Quick
      sexp_input_linted;
  ]
