(** The benchmark harness: regenerates every table/figure-shaped result
    in the paper's evaluation (see DESIGN.md, per-experiment index).

    - {b Table 1}: allocation deltas, baseline vs join points, on the
      NoFib-analogue suites (spectral / real / shootout), with
      min / max / geometric mean per suite exactly as the paper
      reports. The programs are [fjbench/corpus/*.fj], the sources the
      service benchmark runs.
    - {b Sec. 5}: the stream-fusion ablation — skipless vs skip-ful vs
      plain lists, under both compilers.
    - {b Sec. 3}: the codegen claim on the block machine — gotos vs
      calls vs heap allocation for the same program under both
      compilers, cross-checked metric by metric against the Fig. 3
      machine (both fill the same {!Fj_core.Mstats} shape).
    - {b Sec. 2}: the commuting-conversion ablation (join points vs no
      case-of-case at all).
    - {b Bechamel} wall-clock benches: evaluator throughput on the
      optimised output of each compiler, plus optimiser throughput.

    Failures (lint errors, result mismatches) do {e not} abort the
    suite: they are collected, the remaining programs still run, and
    the harness reports everything at the end with a nonzero exit.

    Run from the repository root, which holds [fjbench/corpus]:
    [dune exec bench/main.exe] (add [--quick] to skip bechamel;
    [--json PATH] additionally writes the machine-readable trajectory
    file, e.g. [BENCH_2026-08.json] — see EXPERIMENTS.md;
    [--warmup N] / [--samples N] control the wall-clock measurement
    discipline, stamped into the JSON alongside the git commit). *)

open Fj_core

(* ------------------------------------------------------------------ *)
(* Failure collection                                                  *)
(* ------------------------------------------------------------------ *)

(* The satellite fix for "exit 1 on the first lint failure": every
   check records here and the suite keeps going; [report_failures]
   decides the exit code once everything has run. *)
let failures : string list ref = ref []

let fail fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "BENCH FAILURE: %s@." m;
      failures := m :: !failures)
    fmt

let check_tree ~what expected got =
  match Eval.tree_mismatch expected got with
  | None -> true
  | Some where ->
      fail "%s: result mismatch (%s)" what where;
      false

(* Raised (after recording the failure) when a row cannot be measured;
   callers drop the row and move on. *)
exception Skip_row

(* Every evaluation is fuel-bounded through the reified outcome API: a
   program miscompiled into divergence — or a stuck machine — records
   a failure and skips its row instead of wedging the whole suite. *)
let bench_fuel = 100_000_000

let run_bounded ~what e =
  match Eval.run_outcome ~fuel:bench_fuel e with
  | Eval.Finished (t, s) -> (t, s)
  | Eval.Fuel_exhausted ->
      fail "%s: out of fuel after %d machine steps" what bench_fuel;
      raise Skip_row
  | Eval.Crashed m ->
      fail "%s: evaluation stuck: %s" what m;
      raise Skip_row

(* ------------------------------------------------------------------ *)
(* Wall-clock rigor                                                    *)
(* ------------------------------------------------------------------ *)

(* Evaluator wall-clock is measured as [timing_warmup] discarded
   iterations followed by [timing_samples] measured ones (monotonic
   clock); the JSON reports exact median and p95 over the sorted
   samples, not single-shot numbers. Overridable with [--warmup N] /
   [--samples N]; the chosen counts are stamped into the JSON so a
   diff of two snapshots knows how trustworthy each side's medians
   are. *)
let timing_warmup = ref 1
let timing_samples = ref 5

let timed_samples f =
  for _ = 1 to !timing_warmup do
    ignore (f ())
  done;
  List.init !timing_samples (fun _ ->
      let t0 = Telemetry.now_ms () in
      ignore (f ());
      Telemetry.now_ms () -. t0)

(* Exact rank-[ceil (q * n)] percentile of the sorted samples. *)
let percentile q samples =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let median = percentile 0.5

let report_failures () =
  match List.rev !failures with
  | [] -> 0
  | fs ->
      Fmt.epr "@.%s@." (String.make 64 '=');
      Fmt.epr "%d benchmark failure(s):@." (List.length fs);
      List.iteri (fun i m -> Fmt.epr "  %2d. %s@." (i + 1) m) fs;
      1

(* ------------------------------------------------------------------ *)
(* The NoFib corpus                                                    *)
(* ------------------------------------------------------------------ *)

(* Table 1's suites and row order. Each name is a file of the corpus
   fjbench runs, found as fjbench finds it: relative to the working
   directory. NoFib itself is tens of thousands of lines of Haskell;
   these are surface-language analogues named after the NoFib programs
   whose workload style they imitate (see DESIGN.md, "Substitutions"). *)
let corpus_dir = "fjbench/corpus"

let suites =
  [
    ( "spectral",
      [ "fibheaps"; "ida"; "nucleic2"; "para"; "primetest"; "simple"; "solid";
        "sphere"; "transform"; "queens"; "cichelli"; "wheel-sieve"; "boyer" ] );
    ( "real",
      [ "anna"; "cacheprof"; "fem"; "gamteb"; "hpg"; "parser"; "rsa";
        "compress"; "infer"; "fulsom" ] );
    ("shootout", [ "n-body"; "k-nucleotide"; "spectral-norm"; "fannkuch" ]);
  ]

type program = { name : string; source : string }

let corpus_path name = Filename.concat corpus_dir (name ^ ".fj")

(* The suites with their sources. Every corpus file must sit in exactly
   one suite, so Table 1 covers what the benchmark runs; a file that
   does not, or a name with no readable file, is a failure. *)
let load_suites () =
  if not (Sys.file_exists corpus_dir && Sys.is_directory corpus_dir) then begin
    Fmt.epr "bench: no %s directory here; run from the repository root@."
      corpus_dir;
    exit 2
  end;
  let listed = List.concat_map snd suites in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".fj" then
        let n =
          List.length
            (List.filter (String.equal (Filename.chop_suffix f ".fj")) listed)
        in
        if n <> 1 then
          fail "%s/%s is in %d Table 1 suites, not exactly one" corpus_dir f n)
    (Sys.readdir corpus_dir);
  let load name =
    match In_channel.with_open_bin (corpus_path name) In_channel.input_all with
    | source -> Some { name; source }
    | exception Sys_error m ->
        fail "%s: %s" name m;
        None
  in
  List.map (fun (group, names) -> (group, List.filter_map load names)) suites

let compile prog = Fj_surface.Prelude.compile prog.source

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type measurement = {
  prog : program;
  base_words : int;
  join_words : int;
  base_steps : int;
  join_steps : int;
  base_jumps : int;
  join_jumps : int;
  delta_pct : float;  (** (join - base) / base * 100, the Table 1 metric. *)
  base_report : Pipeline.report;  (** Optimizer telemetry, baseline. *)
  join_report : Pipeline.report;  (** Optimizer telemetry, join points. *)
  base_eval_ms : float list;  (** Measured eval wall-clock samples. *)
  join_eval_ms : float list;
}

let opt_config mode denv =
  Pipeline.default_config ~mode ~datacons:denv ~inline_threshold:300 ()

(* Every compile the harness performs feeds one optimization coverage
   map ({!Coverage}); its summary lands in the BENCH_*.json trajectory
   so a shrinking bench corpus (or a pass that stops firing) is visible
   in the record. *)
let coverage = Coverage.create ()

let optimize_report mode denv core =
  let e, r = Pipeline.run_report (opt_config mode denv) core in
  Coverage.observe_report coverage r;
  (e, r)

let optimize mode denv core = fst (optimize_report mode denv core)

(* Pull the few headline numbers out of a pipeline trace. *)
let report_ms r =
  List.fold_left
    (fun acc (p : Pipeline.pass_record) -> acc +. p.duration_ms)
    0.0 (Pipeline.passes r)

let measure (prog : program) : measurement option =
  let denv, core = compile prog in
  match Lint.lint_result denv core with
  | Error err ->
      fail "%s does not lint: %a" prog.name Lint.pp_error err;
      None
  | Ok _ -> (
      try
      let run e = run_bounded ~what:prog.name e in
      let t0, _ = run core in
      let base, base_report = optimize_report Pipeline.Baseline denv core in
      let joins, join_report =
        optimize_report Pipeline.Join_points denv core
      in
      let tb, sb = run base in
      let tj, sj = run joins in
      ignore (check_tree ~what:(prog.name ^ " (baseline)") t0 tb);
      ignore (check_tree ~what:(prog.name ^ " (join-points)") t0 tj);
      let base_eval_ms = timed_samples (fun () -> run base) in
      let join_eval_ms = timed_samples (fun () -> run joins) in
      let delta_pct =
        if sb.words = 0 then 0.0
        else
          float_of_int (sj.words - sb.words)
          /. float_of_int sb.words *. 100.0
      in
      Some
        {
          prog;
          base_words = sb.words;
          join_words = sj.words;
          base_steps = sb.steps;
          join_steps = sj.steps;
          base_jumps = sb.jumps;
          join_jumps = sj.jumps;
          delta_pct;
          base_report;
          join_report;
          base_eval_ms;
          join_eval_ms;
        }
      with Skip_row -> None)

let geomean deltas =
  (* Geometric mean of the ratios (as the paper's "Geo. Mean" row);
     -100% rows make the geomean degenerate, which the paper marks
     "n/a". *)
  if List.exists (fun d -> d <= -100.0) deltas then None
  else
    let logs =
      List.map (fun d -> Float.log ((100.0 +. d) /. 100.0)) deltas
    in
    let n = List.length logs in
    if n = 0 then None
    else
      Some
        ((Float.exp (List.fold_left ( +. ) 0.0 logs /. float_of_int n) -. 1.0)
        *. 100.0)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let pp_delta ppf d =
  if d > 0.0 then Fmt.pf ppf "+%.1f%%" d else Fmt.pf ppf "%.1f%%" d

let table1_group (group : string) (progs : program list) =
  Fmt.pr "@.%s@." (String.make 64 '-');
  Fmt.pr "Table 1 / %-10s %14s %12s %10s@." group "base words" "join words"
    "Allocs";
  Fmt.pr "%s@." (String.make 64 '-');
  let ms = List.filter_map measure progs in
  List.iter
    (fun m ->
      Fmt.pr "%-22s %14d %12d %a@." m.prog.name m.base_words m.join_words
        pp_delta m.delta_pct)
    ms;
  let deltas = List.map (fun m -> m.delta_pct) ms in
  let mn = List.fold_left Float.min infinity deltas in
  let mx = List.fold_left Float.max neg_infinity deltas in
  Fmt.pr "%s@." (String.make 64 '-');
  Fmt.pr "%-22s %a@." "Min" pp_delta mn;
  Fmt.pr "%-22s %a@." "Max" pp_delta mx;
  (match geomean deltas with
  | Some g -> Fmt.pr "%-22s %a@." "Geo. Mean" pp_delta g
  | None -> Fmt.pr "%-22s %38s@." "Geo. Mean" "n/a");
  ms

(* The optimizer-side telemetry behind Table 1: how long each pipeline
   ran and how much rewriting it did (whole-run tick totals). *)
let telemetry_table (ms : measurement list) =
  Fmt.pr "@.%s@." (String.make 76 '-');
  Fmt.pr "Optimizer telemetry %18s %10s %8s %8s %8s@." "base ms" "join ms"
    "ticks" "contify" "c-o-c";
  Fmt.pr "%s@." (String.make 76 '-');
  List.iter
    (fun m ->
      Fmt.pr "%-22s %15.2f %10.2f %8d %8d %8d@." m.prog.name
        (report_ms m.base_report) (report_ms m.join_report)
        (Pipeline.total_ticks m.join_report)
        (Pipeline.contified m.join_report)
        (try List.assoc "case_of_case" (Pipeline.ticks m.join_report)
         with Not_found -> 0))
    ms

(* Eval wall-clock, warmup + measured samples (see [timed_samples]);
   single-shot timings on sub-millisecond programs are mostly noise,
   so the table shows median and p95 of the measured iterations. *)
let timing_table (ms : measurement list) =
  Fmt.pr "@.%s@." (String.make 76 '-');
  Fmt.pr "Eval wall-clock ms (%d warmup + %d measured) %9s %8s %9s %8s@."
    !timing_warmup !timing_samples "base p50" "p95" "join p50" "p95";
  Fmt.pr "%s@." (String.make 76 '-');
  List.iter
    (fun m ->
      Fmt.pr "%-40s %9.3f %8.3f %9.3f %8.3f@." m.prog.name
        (median m.base_eval_ms)
        (percentile 0.95 m.base_eval_ms)
        (median m.join_eval_ms)
        (percentile 0.95 m.join_eval_ms))
    ms

(* The decision ledger behind the ticks: how many rewrites each
   pipeline accepted vs refused, and the dominant refusal. A shift in
   a program's rejection profile (e.g. inline_too_big suddenly
   dominating) is an optimizer regression the allocation columns may
   not show yet — the counts land in BENCH_*.json via
   [Pipeline.summary_json]. *)
let decision_table (ms : measurement list) =
  Fmt.pr "@.%s@." (String.make 76 '-');
  Fmt.pr "Optimizer decisions %12s %12s   %s@." "base f/r" "join f/r"
    "top join rejection";
  Fmt.pr "%s@." (String.make 76 '-');
  List.iter
    (fun m ->
      let cell r =
        let ds = Pipeline.decisions r in
        Fmt.str "%d/%d" (Decision.fired ds) (Decision.rejected ds)
      in
      let top =
        match
          List.sort
            (fun (_, a) (_, b) -> compare b a)
            (Decision.reason_counts (Pipeline.decisions m.join_report))
        with
        | [] -> "-"
        | (name, n) :: _ -> Fmt.str "%s (%d)" name n
      in
      Fmt.pr "%-22s %9s %12s   %s@." m.prog.name (cell m.base_report)
        (cell m.join_report) top)
    ms

(* ------------------------------------------------------------------ *)
(* Sec. 5: stream fusion ablation                                      *)
(* ------------------------------------------------------------------ *)

let fusion_row name src =
  try
    let denv, core = Fj_fusion.Streams.compile_pipeline src in
    let t0, _ = run_bounded ~what:(Fmt.str "fusion %s" name) core in
    let cell mode =
      let e = optimize mode denv core in
      let what = Fmt.str "fusion %s (%s)" name (Pipeline.mode_name mode) in
      let t, s = run_bounded ~what e in
      ignore (check_tree ~what t0 t);
      s.Eval.words
    in
    let b = cell Pipeline.Baseline in
    let j = cell Pipeline.Join_points in
    Fmt.pr "%-34s %12d %12d %a@." name b j pp_delta
      (if b = 0 then 0.0 else float_of_int (j - b) /. float_of_int b *. 100.0)
  with Skip_row -> ()

let fusion_table n =
  Fmt.pr "@.%s@." (String.make 72 '-');
  Fmt.pr
    "Stream fusion (Sec. 5), n=%d        base words   join words     Allocs@."
    n;
  Fmt.pr "%s@." (String.make 72 '-');
  let open Fj_fusion.Streams in
  fusion_row "sum.map.filter  skipless" (sum_map_filter_skipless n);
  fusion_row "sum.map.filter  skip-ful" (sum_map_filter_skipful n);
  fusion_row "sum.map.filter  lists" (sum_map_filter_lists n);
  fusion_row "dot-product     skipless" (dot_product_skipless n);
  fusion_row "dot-product     skip-ful" (dot_product_skipful n);
  fusion_row "double-filter   skipless" (double_filter_skipless n);
  fusion_row "double-filter   skip-ful" (double_filter_skipful n)

(* ------------------------------------------------------------------ *)
(* Sec. 3: block machine codegen                                       *)
(* ------------------------------------------------------------------ *)

(* One program under one mode, run on {e both} machines. The two
   executors fill the same {!Mstats} record, so each metric lines up
   column for column: the block machine's jumps are lowered F_J jumps,
   its calls went through closures the baseline had to allocate, etc. *)
let machine_rows name denv core t0 mode =
  let what = Fmt.str "block machine %s (%s)" name (Pipeline.mode_name mode) in
  let e = optimize mode denv core in
  let _, es = run_bounded ~what e in
  let prog = Fj_machine.Lower.lower_program e in
  let v, s =
    match Fj_machine.Bmachine.run ~fuel:bench_fuel prog with
    | v, s -> (v, s)
    | exception Fj_machine.Bmachine.Out_of_fuel ->
        fail "%s: block machine out of fuel" what;
        raise Skip_row
    | exception Fj_machine.Bmachine.Stuck m ->
        fail "%s: block machine stuck: %s" what m;
        raise Skip_row
  in
  ignore (check_tree ~what t0 (Fj_machine.Bmachine.tree_of_value v));
  let row machine (s : Mstats.t) =
    Fmt.pr "%-28s %-12s %-6s %8d %8d %8d %8d %6d@." name
      (Pipeline.mode_name mode) machine s.words s.jumps s.calls s.steps
      s.max_stack
  in
  row "block" s;
  row "fig3" es

let machine_table () =
  Fmt.pr "@.%s@." (String.make 88 '-');
  Fmt.pr
    "Block machine vs Fig. 3 (Sec. 3)                     words    jumps    \
     calls    steps  stack@.";
  Fmt.pr "%s@." (String.make 88 '-');
  let check name src =
    try
      let denv, core = Fj_fusion.Streams.compile_pipeline src in
      let t0, _ = run_bounded ~what:name core in
      machine_rows name denv core t0 Pipeline.Baseline;
      machine_rows name denv core t0 Pipeline.Join_points
    with Skip_row -> ()
  in
  check "skipless pipeline n=200"
    (Fj_fusion.Streams.sum_map_filter_skipless 200);
  check "double-filter n=200" (Fj_fusion.Streams.double_filter_skipless 200)

(* ------------------------------------------------------------------ *)
(* Sec. 2: commuting conversions ablation                               *)
(* ------------------------------------------------------------------ *)

let cc_ablation programs =
  Fmt.pr "@.%s@." (String.make 72 '-');
  Fmt.pr
    "Commuting conversions ablation (Sec. 2)   join-points   no-case-of-case@.";
  Fmt.pr "%s@." (String.make 72 '-');
  List.iter
    (fun prog ->
      try
        let denv, core = compile prog in
        let t0, _ = run_bounded ~what:prog.name core in
        let words mode =
          let e = optimize mode denv core in
          let what =
            Fmt.str "cc-ablation %s (%s)" prog.name (Pipeline.mode_name mode)
          in
          let t, s = run_bounded ~what e in
          ignore (check_tree ~what t0 t);
          s.Eval.words
        in
        Fmt.pr "%-36s %13d %17d@." prog.name
          (words Pipeline.Join_points)
          (words Pipeline.No_cc)
      with Skip_row -> ())
    (List.filter_map
       (fun name -> List.find_opt (fun p -> String.equal p.name name) programs)
       [ "k-nucleotide"; "n-body"; "transform" ])

(* ------------------------------------------------------------------ *)
(* Sec. 8: direct style vs CPS                                          *)
(* ------------------------------------------------------------------ *)

let cps_table () =
  Fmt.pr "@.%s@." (String.make 72 '-');
  Fmt.pr "Direct style vs CPS (Sec. 8)@.";
  Fmt.pr "%s@." (String.make 72 '-');
  (* The paper's CSE example, closed over concrete f and g. *)
  let module B = Builder in
  let i2i = Types.Arrow (Types.int, Types.int) in
  let prog =
    B.app
      (B.app
         (B.lam "f" (Types.arrows [ Types.int; Types.int ] Types.int)
            (fun f ->
              B.lam "g" i2i (fun g ->
                  B.let_ "a" (B.app g (B.int 7)) (fun a ->
                      B.app2 f a (B.app g (B.int 7))))))
         (B.lam "p" Types.int (fun p ->
              B.lam "q" Types.int (fun q -> B.add p q))))
      (B.lam "y" Types.int (fun y -> B.mul y y))
  in
  let shared e = snd (Cse.run_counted e) in
  let cpsd = Cps.transform prog in
  Fmt.pr "%-44s %10s %10s@." "f (g x) (g x), CSE opportunities found"
    "direct" "CPS";
  Fmt.pr "%-44s %10d %10d@." "" (shared prog) (shared cpsd);
  Fmt.pr "%-44s %10d %10d@." "syntactic lambdas" (Cps.count_lams prog)
    (Cps.count_lams cpsd);
  Fmt.pr "%-44s %10d %10d@." "term size" (Syntax.size prog)
    (Syntax.size cpsd)

(* ------------------------------------------------------------------ *)
(* The BENCH_*.json trajectory file                                    *)
(* ------------------------------------------------------------------ *)

(* The commit the snapshot was taken at, for the "commit" provenance
   field; None outside a git checkout (or without git on PATH). *)
let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception _ -> None
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some c when String.length c >= 7 -> Some c
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Compile service: batch throughput and cache hit rate                *)
(* ------------------------------------------------------------------ *)

module Service = Fj_service.Service
module Svc_cache = Fj_service.Cache

type service_run = { sr_jobs : int; sr_wall_ms : float; sr_per_sec : float }

type service_result = {
  sv_programs : int;
  sv_runs : service_run list;  (** No cache, --jobs 1/2/4. *)
  sv_cold : Svc_cache.stats;
  sv_warm : Svc_cache.stats;
  sv_warm_hit_rate : float;
  sv_cold_wall_ms : float;
  sv_warm_wall_ms : float;
}

let scratch_dir name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "fj-bench-%s.%d" name (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let service_batch ?cache ~jobs sources =
  let cfg =
    { (Service.default_config ()) with Service.jobs; cache }
  in
  let b = Service.run_batch cfg sources in
  List.iter
    (fun (o : Service.outcome) ->
      match o.Service.status with
      | Service.Compiled _ -> ()
      | st ->
          fail "service batch: %s ended %s" o.Service.id
            (Service.status_name st))
    b.Service.b_outcomes;
  b

let service_table programs =
  let cache_dir = scratch_dir "cache" in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir) @@ fun () ->
  let sources = List.map (fun p -> (p.name, corpus_path p.name)) programs in
  let n = List.length sources in
  Fmt.pr "@.%s@." (String.make 64 '-');
  Fmt.pr "Compile service: batch throughput (%d programs)@." n;
  Fmt.pr "%s@." (String.make 64 '-');
  let batches =
    List.map (fun jobs -> (jobs, service_batch ~jobs sources)) [ 1; 2; 4 ]
  in
  (* Every jobs level must produce exactly the jobs 1 outputs. *)
  let b1 = List.assoc 1 batches in
  List.iter
    (fun (jobs, b) ->
      List.iter2
        (fun (o1 : Service.outcome) (o : Service.outcome) ->
          if o.Service.status <> o1.Service.status then
            fail "service batch: %s at --jobs %d differs from --jobs 1"
              o.Service.id jobs)
        b1.Service.b_outcomes b.Service.b_outcomes)
    batches;
  let runs =
    List.map
      (fun (jobs, b) ->
        let per_sec =
          if b.Service.b_wall_ms > 0.0 then
            float_of_int n /. (b.Service.b_wall_ms /. 1000.0)
          else 0.0
        in
        Fmt.pr "--jobs %d %24.0f ms %17.1f programs/s@." jobs
          b.Service.b_wall_ms per_sec;
        { sr_jobs = jobs; sr_wall_ms = b.Service.b_wall_ms; sr_per_sec = per_sec })
      batches
  in
  (* Cold, then warm, against the same on-disk cache: the warm run
     must replay from the cache, and the cache earns its place only if
     that replay beats compiling with no cache at all. *)
  let cold_cache = Svc_cache.create ~dir:cache_dir () in
  let cold = service_batch ~cache:cold_cache ~jobs:1 sources in
  let warm_cache = Svc_cache.create ~dir:cache_dir () in
  let warm = service_batch ~cache:warm_cache ~jobs:1 sources in
  let hit_rate = Svc_cache.hit_rate warm_cache in
  if hit_rate <= 0.5 then
    fail "service cache: warm hit rate %.0f%% (want > 50%%)"
      (100.0 *. hit_rate);
  let uncached_ms = (List.assoc 1 batches).Service.b_wall_ms in
  if warm.Service.b_wall_ms >= uncached_ms then
    fail "service cache: warm batch %.0f ms is not below uncached --jobs 1 %.0f ms"
      warm.Service.b_wall_ms uncached_ms;
  Fmt.pr "cache cold (--jobs 1) %12.0f ms %17d store(s)@."
    cold.Service.b_wall_ms (Svc_cache.stats cold_cache).Svc_cache.stores;
  Fmt.pr "cache warm (--jobs 1) %12.0f ms %16.0f%% hit rate, %.2fx uncached@."
    warm.Service.b_wall_ms (100.0 *. hit_rate)
    (warm.Service.b_wall_ms /. uncached_ms);
  {
    sv_programs = n;
    sv_runs = runs;
    sv_cold = Svc_cache.stats cold_cache;
    sv_warm = Svc_cache.stats warm_cache;
    sv_warm_hit_rate = hit_rate;
    sv_cold_wall_ms = cold.Service.b_wall_ms;
    sv_warm_wall_ms = warm.Service.b_wall_ms;
  }

(* Additive fj-bench/1 field ("service"): throughput and cache hit
   rate of the fjc batch service over the bench corpus. Informational
   — Bench_diff ignores fields it does not know. *)
let service_json (sv : service_result) =
  let open Telemetry.Json in
  let stats_obj (s : Svc_cache.stats) =
    Obj
      [
        ("hits", Int s.Svc_cache.hits);
        ("misses", Int s.Svc_cache.misses);
        ("stores", Int s.Svc_cache.stores);
        ("quarantined", Int s.Svc_cache.quarantined);
      ]
  in
  Obj
    [
      ("programs", Int sv.sv_programs);
      ( "throughput",
        Arr
          (List.map
             (fun r ->
               Obj
                 [
                   ("jobs", Int r.sr_jobs);
                   ("wall_ms", Float r.sr_wall_ms);
                   ("programs_per_sec", Float r.sr_per_sec);
                 ])
             sv.sv_runs) );
      ( "cache",
        Obj
          [
            ("cold", stats_obj sv.sv_cold);
            ("warm", stats_obj sv.sv_warm);
            ("warm_hit_rate", Float sv.sv_warm_hit_rate);
            ("cold_wall_ms", Float sv.sv_cold_wall_ms);
            ("warm_wall_ms", Float sv.sv_warm_wall_ms);
          ] );
    ]


(* Machine-readable record of this run — committed as BENCH_<date>.json
   so the repository accumulates a perf trajectory and CI can detect
   regressions against it with [fjc bench diff] (see EXPERIMENTS.md
   for the schema). *)
let bench_json ~quick ~metrics ~service (groups : (string * measurement list) list)
    =
  let open Telemetry.Json in
  let program_json group (m : measurement) =
    Obj
      [
        ("name", Str m.prog.name);
        ("suite", Str group);
        ("base_words", Int m.base_words);
        ("join_words", Int m.join_words);
        ("base_steps", Int m.base_steps);
        ("join_steps", Int m.join_steps);
        ("base_jumps", Int m.base_jumps);
        ("join_jumps", Int m.join_jumps);
        ("delta_pct", Float m.delta_pct);
        (* Additive fj-bench/1 fields (schema-compatible): measured
           wall-clock summaries, exact over the sorted samples. *)
        ( "timing",
          Obj
            [
              ("warmup", Int !timing_warmup);
              ("samples", Int !timing_samples);
              ("base_eval_ms_median", Float (median m.base_eval_ms));
              ("base_eval_ms_p95", Float (percentile 0.95 m.base_eval_ms));
              ("join_eval_ms_median", Float (median m.join_eval_ms));
              ("join_eval_ms_p95", Float (percentile 0.95 m.join_eval_ms));
            ] );
        ( "optimizer",
          Obj
            [
              ("base", Pipeline.summary_json m.base_report);
              ("join", Pipeline.summary_json m.join_report);
            ] );
      ]
  in
  let suite_json (group, ms) =
    let deltas = List.map (fun m -> m.delta_pct) ms in
    Obj
      [
        ("suite", Str group);
        ("programs", Int (List.length ms));
        ("min_delta_pct", Float (List.fold_left Float.min infinity deltas));
        ("max_delta_pct", Float (List.fold_left Float.max neg_infinity deltas));
        ( "geomean_delta_pct",
          match geomean deltas with Some g -> Float g | None -> Null );
      ]
  in
  let date =
    let tm = Unix.gmtime (Unix.gettimeofday ()) in
    Fmt.str "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday
  in
  Obj
    ([
       ("schema", Str "fj-bench/1");
       ("date", Str date);
       ("quick", Bool quick);
     ]
    (* Provenance: which tree produced this snapshot. Additive
       fj-bench/1 field, absent outside a git checkout. *)
    @ (match git_commit () with
      | Some c -> [ ("commit", Str c) ]
      | None -> [])
    @ [
      ( "programs",
        Arr
          (List.concat_map
             (fun (g, ms) -> List.map (program_json g) ms)
             groups) );
      ("suites", Arr (List.map suite_json groups));
      (* The harness-wide registry: counters plus latency histogram
         summaries (count / p50 / p95 / max) for eval.ms, eval.steps,
         pass.duration_ms, … — everything published while the suite
         ran. Additive fj-bench/1 field. *)
      ("metrics", Metrics.to_json metrics);
      (* Which of the optimizer's possible behaviours this bench corpus
         exercised — additive fj-bench/1 field, same shape as the
         [fj-cover/1] summary. *)
      ("coverage", Coverage.summary_json coverage);
      (* Compile-service throughput and cache hit rate — additive
         fj-bench/1 field, informational (never gated on). *)
      ("service", service_json service);
      ("failures", Arr (List.map (fun m -> Str m) (List.rev !failures)));
    ])

let write_json path ~quick ~metrics ~service groups =
  let json =
    Telemetry.Json.to_string (bench_json ~quick ~metrics ~service groups)
  in
  match open_out path with
  | exception Sys_error m -> fail "cannot write %s: %s" path m
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc json;
          output_char oc '\n');
      Fmt.pr "@.wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benches                                          *)
(* ------------------------------------------------------------------ *)

let bechamel_benches () =
  let open Bechamel in
  let open Toolkit in
  let pipeline_bench name src =
    let denv, core = Fj_fusion.Streams.compile_pipeline src in
    let base = optimize Pipeline.Baseline denv core in
    let joins = optimize Pipeline.Join_points denv core in
    [
      Test.make
        ~name:(name ^ "/run-baseline")
        (Staged.stage (fun () -> ignore (Eval.eval base)));
      Test.make
        ~name:(name ^ "/run-join-points")
        (Staged.stage (fun () -> ignore (Eval.eval joins)));
      Test.make
        ~name:(name ^ "/optimize-join-points")
        (Staged.stage (fun () ->
             ignore (optimize Pipeline.Join_points denv core)));
    ]
  in
  let tests =
    Test.make_grouped ~name:"fj"
      [
        Test.make_grouped ~name:"fusion"
          (pipeline_bench "sum-map-filter"
             (Fj_fusion.Streams.sum_map_filter_skipless 400));
        Test.make_grouped ~name:"dot"
          (pipeline_bench "dot-product"
             (Fj_fusion.Streams.dot_product_skipless 200));
      ]
  in
  let benchmark () =
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
    in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  Fmt.pr "@.%s@." (String.make 72 '-');
  Fmt.pr "Bechamel wall-clock (monotonic ns/run)@.";
  Fmt.pr "%s@." (String.make 72 '-');
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Fmt.pr "%-44s %12.1f ns/run@." name est
      | _ -> Fmt.pr "%-44s %12s@." name "?")
    results

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let opt_value name =
    let n = Array.length Sys.argv in
    let rec go i =
      if i >= n then None
      else if Sys.argv.(i) = name && i + 1 < n then Some Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  let json_path = opt_value "--json" in
  let int_opt name r =
    match opt_value name with
    | None -> ()
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> r := n
        | _ ->
            Fmt.epr "bench: %s expects a non-negative integer, got %S@." name v;
            exit 2)
  in
  int_opt "--warmup" timing_warmup;
  int_opt "--samples" timing_samples;
  if !timing_samples < 1 then begin
    Fmt.epr "bench: --samples must be at least 1@.";
    exit 2
  end;
  let corpus = load_suites () in
  let programs = List.concat_map snd corpus in
  Fmt.pr "System F_J benchmark harness — reproducing PLDI'17 Table 1@.";
  Fmt.pr "(allocation words counted by the Fig. 3 abstract machine;@.";
  Fmt.pr " Allocs column = (join-points - baseline) / baseline)@.";
  (* Harness-wide metrics registry: every instrumented component
     (Eval, Bmachine, pipeline runs outside their own report scope)
     publishes into it for the duration of the suite. *)
  let metrics = Metrics.create () in
  Metrics.with_registry metrics @@ fun () ->
  let groups =
    List.map (fun (group, progs) -> (group, table1_group group progs)) corpus
  in
  let ms = List.concat_map snd groups in
  telemetry_table ms;
  timing_table ms;
  decision_table ms;
  fusion_table 400;
  machine_table ();
  cc_ablation programs;
  cps_table ();
  let service = service_table programs in
  if not quick then bechamel_benches ();
  (match json_path with
  | Some path -> write_json path ~quick ~metrics ~service groups
  | None -> ());
  let rc = report_failures () in
  Fmt.pr "@.done.@.";
  exit rc
