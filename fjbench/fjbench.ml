(* fjbench: one seeded benchmark of the compile service, end to end and
   layer by layer.

   Every request goes through [Service.process_one] under the
   configuration [fjc batch] uses with its default flags. Every output
   is read back and run on the Fig. 3 machine, and its answer must
   equal the known answer of its input.
   The program prints one [name value unit] line per metric on stdout;
   run.py picks out the ones BENCHMARK.json names. See README.md for
   the workloads, the metrics and which layer should move which. *)

open Fj_core
module Service = Fj_service.Service
module Cache = Fj_service.Cache
module Budget = Fj_service.Budget

let workloads = [ "nofib"; "gen-small"; "nofib-rebuild" ]
let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let trace_out = ref ""
let smoke = ref false
let corpus_dir = "fjbench/corpus"
let work_dir = ref ""

let specs =
  Arg.align
    [
      ("--workload", Arg.Set_string workload, "W " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N Seeds the request order and the edits");
      ("--seconds", Arg.Set_float seconds, "S Measure for S seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 Replay each request layer by layer");
      ("--trace-out", Arg.Set_string trace_out, "PATH Chrome-trace JSON of the layer spans");
      ("--smoke", Arg.Set smoke, " One short round, one set-up");
      ("--work", Arg.Set_string work_dir, "DIR Scratch directory, removed at exit");
    ]

let now = Telemetry.now_ms

(* ------------------------------------------------------------------ *)
(* Failures, files, statistics                                         *)
(* ------------------------------------------------------------------ *)

let failures = ref 0

let fail fmt =
  Fmt.kstr
    (fun m ->
      incr failures;
      if !failures <= 20 then Fmt.epr "fjbench: FAIL %s@." m)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

(* Per-request samples, stored unboxed so that the benchmark's own
   bookkeeping stays out of [peak_rss_mb]: as boxed lists they grew it
   by 6 MB a run on gen-small. *)
type samples = { mutable data : Float.Array.t; mutable len : int }

let samples () = { data = Float.Array.create 1024; len = 0 }

let add s x =
  if s.len = Float.Array.length s.data then begin
    let d = Float.Array.create (2 * s.len) in
    Float.Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  Float.Array.set s.data s.len x;
  s.len <- s.len + 1

(* Exact rank-[ceil (q * n)] percentile. *)
let percentile q s =
  let a = Float.Array.sub s.data 0 s.len in
  Float.Array.sort compare a;
  let n = s.len in
  if n = 0 then nan
  else Float.Array.get a (max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l =
  let s = samples () in
  List.iter (add s) l;
  percentile 0.5 s

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let metrics : (string * float * string) list ref = ref []
let emit name v unit = metrics := (name, v, unit) :: !metrics

(* ------------------------------------------------------------------ *)
(* Reference speed                                                     *)
(* ------------------------------------------------------------------ *)

(* The shared 2-core machine this benchmark was built on slows down by
   20-40% for minutes at a time: far more than the changes it has to
   detect, and longer than a run. So a reference kernel that does not
   touch the compiler (Map insertions: allocation and pointer chasing,
   as in a compiler pass) is timed between requests, at most every
   quarter second. It slows down with the machine: while compile
   times swung by up to a half, their ratio to the kernel's time
   mostly stayed within 3%. Every wall-clock time is multiplied by
   [quiet_kernel_ms /. kernel_ms], and so reads as milliseconds on
   that machine when quiet (2.0 GHz Xeon, OCaml 5.1.1).
   [bench.slowdown] reports the median factor. *)

module Imap = Map.Make (Int)

let kernel () =
  let m = ref Imap.empty in
  for i = 1 to 10_000 do
    m := Imap.add ((i * 7919) land 0x3fff) i !m
  done;
  Imap.fold (fun _ v a -> a + v) !m 0

let quiet_kernel_ms = 2.4
let scale = ref 1.0
let slowdowns = ref []
let last_probe = ref neg_infinity

let probe ?(force = false) () =
  if force || now () -. !last_probe >= 250.0 then begin
    let k =
      median
        (List.init 3 (fun _ ->
             let t0 = now () in
             ignore (Sys.opaque_identity (kernel ()));
             now () -. t0))
    in
    scale := quiet_kernel_ms /. k;
    slowdowns := (k /. quiet_kernel_ms) :: !slowdowns;
    last_probe := now ()
  end

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type input = {
  name : string;
  mutable path : string;
  mutable text : string;
  surface : bool;  (** A [.fj] source; otherwise a [.sexp] Core file. *)
  denv : Datacon.env;
  answer : Eval.tree;  (** The known value of [main]. *)
  mutable output : string option;
      (** The first output of this version of the source: every later
          compile of it must produce the same bytes. *)
  mutable version : int;
}

let eval_fuel = 100_000_000

(* The header line every corpus file starts with. *)
let pinned_answer text =
  let first =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  try Some (Scanf.sscanf first "-- expected: %d%!" Fun.id) with _ -> None

(* The pinned corpus, each pinned answer cross-checked against the
   unoptimised program. With [~copy_to] the sources are copied there,
   so that edits never touch the pinned files. *)
let load_corpus ?copy_to () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fj")
    |> List.sort String.compare
  in
  if files = [] then failwith ("no .fj sources in " ^ corpus_dir);
  List.filter_map
    (fun f ->
      let name = Filename.chop_suffix f ".fj" in
      let text = read_file (Filename.concat corpus_dir f) in
      let path =
        match copy_to with
        | None -> Filename.concat corpus_dir f
        | Some d ->
            let p = Filename.concat d f in
            write_file p text;
            p
      in
      match pinned_answer text with
      | None ->
          fail "%s: no \"-- expected: N\" header" name;
          None
      | Some n -> (
          let answer = Eval.TLit (Literal.Int n) in
          match Fj_surface.Prelude.compile text with
          | exception e ->
              fail "%s: front end: %s" name (Printexc.to_string e);
              None
          | denv, core -> (
              match Eval.run_outcome ~fuel:eval_fuel core with
              | Eval.Finished (t, _) when Eval.equal_tree t answer ->
                  Some
                    {
                      name;
                      path;
                      text;
                      surface = true;
                      denv;
                      answer;
                      output = None;
                      version = 0;
                    }
              | Eval.Finished (t, _) ->
                  fail "%s: unoptimised program gives %a, pinned %d" name
                    Eval.pp_tree t n;
                  None
              | Eval.Fuel_exhausted ->
                  fail "%s: unoptimised program out of fuel" name;
                  None
              | Eval.Crashed m ->
                  fail "%s: unoptimised program stuck: %s" name m;
                  None)))
    files
  |> Array.of_list

let gen_size = 40
let gen_fuel = 200_000
let gen_count () = if !smoke then 30 else 300

(* [Gen] programs written as the [.sexp] files a user would send. The
   reference answer is the generated program's own value on the Fig. 3
   machine. The pool is fixed (Gen seeds 1..N) and only its order is
   seeded: the mean of a few hundred random programs moves by 10-15%
   from one draw to the next, which would hide any change to the
   generated-code counts. *)
let load_gen dir =
  Array.init (gen_count ()) (fun i ->
      let gseed = i + 1 in
      let e = Gen.program_of_seed ~size:gen_size gseed in
      let name = Printf.sprintf "gen-%d" gseed in
      let text = Sexp.write e in
      let path = Filename.concat dir (name ^ ".sexp") in
      write_file path text;
      match Eval.run_outcome ~fuel:gen_fuel e with
      | Eval.Finished (answer, _) ->
          Some
            {
              name;
              path;
              text;
              surface = false;
              denv = Datacon.builtins;
              answer;
              output = None;
              version = 0;
            }
      | Eval.Fuel_exhausted ->
          fail "%s: generated program out of fuel" name;
          None
      | Eval.Crashed m ->
          fail "%s: generated program stuck: %s" name m;
          None)
  |> Array.to_list |> List.filter_map Fun.id |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The service, as [fjc batch] configures it                           *)
(* ------------------------------------------------------------------ *)

let service_config ?cache () =
  {
    (Service.default_config ()) with
    Service.pipeline =
      Pipeline.default_config ~mode:Pipeline.Join_points ~iterations:3
        ~inline_threshold:300 ~dup_threshold:12 ~policy:Guard.Recover ();
    cache;
  }

(* What the service hands [Pipeline.run_report] for a [Full] attempt. *)
let full_pipeline (cfg : Service.config) denv =
  {
    cfg.Service.pipeline with
    Pipeline.datacons = denv;
    limits = Budget.limits cfg.Service.budget;
    cache =
      Option.map
        (fun c ->
          Cache.pass_cache c
            ~fingerprint:(Service.fingerprint cfg Service.Full)
            ~datacons:denv)
        cfg.Service.cache;
  }

type checked = {
  c_expr : Syntax.expr;
  c_read_ms : float;
  c_run_ms : float;
  c_stats : Eval.stats;
  c_nodes : int;
}

(* Outputs of a two-worker batch whose bytes differ from the
   sequential compile of the same source. *)
let diverged = ref 0
let parallel_outputs = ref 0

(* A compiled output passes when it compiled at the [Full] rung, reads
   back, and evaluates to the known answer. A sequential output must
   also be byte-identical to every earlier output of the same source.
   A parallel output ([~parallel]) that differs only counts in
   [diverged]: worker domains still share unsynchronised state, so
   that check cannot pass yet. *)
let check ?(parallel = false) inp (o : Service.outcome) =
  match o.Service.status with
  | Service.Compiled a when a.Service.a_rung = Service.Full -> (
      let out = a.Service.a_output in
      let same =
        match inp.output with
        | None ->
            inp.output <- Some out;
            true
        | Some prev -> String.equal prev out
      in
      if parallel then begin
        incr parallel_outputs;
        if not same then incr diverged
      end;
      if not (same || parallel) then begin
        fail "%s: output differs from the earlier compile of the same source"
          o.Service.id;
        None
      end
      else
        match
          Span.with_span_timed ~cat:"layer" "sexp.read" (fun () ->
              Span.annotate "id" (Telemetry.Json.Str o.Service.id);
              Sexp.read inp.denv out)
        with
        | exception e ->
            fail "%s: output does not read back: %s" o.Service.id
              (Printexc.to_string e);
            None
        | expr, read_ms -> (
            let t0 = now () in
            let r = Eval.run_outcome ~fuel:eval_fuel expr in
            let run_ms = now () -. t0 in
            match r with
            | Eval.Finished (t, stats) when Eval.equal_tree t inp.answer ->
                Some
                  {
                    c_expr = expr;
                    c_read_ms = read_ms;
                    c_run_ms = run_ms;
                    c_stats = stats;
                    c_nodes = a.Service.a_output_size;
                  }
            | Eval.Finished (t, _) ->
                fail "%s: wrong answer %a, want %a" o.Service.id Eval.pp_tree t
                  Eval.pp_tree inp.answer;
                None
            | Eval.Fuel_exhausted ->
                fail "%s: output out of fuel" o.Service.id;
                None
            | Eval.Crashed m ->
                fail "%s: output stuck: %s" o.Service.id m;
                None))
  | Service.Compiled a ->
      fail "%s: compiled at rung %s" o.Service.id (Service.rung_name a.Service.a_rung);
      None
  | Service.Rejected { kind; detail } ->
      fail "%s: rejected (%s): %s" o.Service.id kind detail;
      None
  | st ->
      fail "%s: %s" o.Service.id (Service.status_name st);
      None

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type env = {
  cfg : Service.config;
  inputs : input array;
  dir : string;
  edits_per_round : int;
  edit_order : input array;
      (** Seeded. Each round edits the next [edits_per_round] of these,
          so every source is edited equally often: which sources are
          cold then moves [compile_ms_p95] far less from seed to seed. *)
  mutable edits_done : int;
}

let make_env ?(edits_per_round = 0) cfg inputs dir =
  let rng = Random.State.make [| !seed; 0xed17 |] in
  { cfg; inputs; dir; edits_per_round; edit_order = shuffle rng inputs; edits_done = 0 }

let setup name dir =
  match name with
  | "nofib" -> make_env (service_config ()) (load_corpus ()) dir
  | "gen-small" -> make_env (service_config ()) (load_gen dir) dir
  | "nofib-rebuild" ->
      let inputs = load_corpus ~copy_to:dir () in
      let cache = Cache.create ~dir:(Filename.concat dir "cache") () in
      let cfg = service_config ~cache () in
      Array.iter
        (fun inp -> ignore (check inp (Service.process_one cfg ~id:inp.name ~path:inp.path)))
        inputs;
      make_env ~edits_per_round:((Array.length inputs + 9) / 10) cfg inputs dir
  | w -> failwith ("unknown workload " ^ w)

(* Append one unused definition: the edit a user makes between two
   builds. The new version is a new file; its first compile is the
   one every later compile must match. *)
let edit env inp =
  inp.version <- inp.version + 1;
  inp.text <- Printf.sprintf "%s\ndef unused_edit_%d = %d\n" inp.text inp.version inp.version;
  inp.path <- Filename.concat env.dir (Printf.sprintf "%s.v%d.fj" inp.name inp.version);
  inp.output <- None;
  write_file inp.path inp.text

(* One round: every input once, in a seeded order, after the round's
   edits. *)
let round_order env rng ~edits =
  if edits then
    for _ = 1 to env.edits_per_round do
      edit env env.edit_order.(env.edits_done mod Array.length env.edit_order);
      env.edits_done <- env.edits_done + 1
    done;
  shuffle rng env.inputs

(* ------------------------------------------------------------------ *)
(* End-to-end measurement                                              *)
(* ------------------------------------------------------------------ *)

type e2e = {
  mutable attempted : int;
  mutable passed : int;
  compile_ms : samples;
  mutable busy_ms : float;  (** Compile time only: the throughput denominator. *)
  mutable kwords : float;
  run_ms : samples;
  mutable words : int;
  mutable steps : int;
  mutable nodes : int;
  cache_warm_ms : samples;
  cache_cold_ms : samples;
}

let fresh_e2e () =
  {
    attempted = 0;
    passed = 0;
    compile_ms = samples ();
    busy_ms = 0.0;
    kwords = 0.0;
    run_ms = samples ();
    words = 0;
    steps = 0;
    nodes = 0;
    cache_warm_ms = samples ();
    cache_cold_ms = samples ();
  }

let record acc inp o ~ms =
  acc.attempted <- acc.attempted + 1;
  add acc.compile_ms ms;
  let warm = inp.output <> None in
  match check inp o with
  | None -> None
  | Some c ->
      acc.passed <- acc.passed + 1;
      add acc.run_ms (c.c_run_ms *. !scale);
      acc.words <- acc.words + c.c_stats.Eval.words;
      acc.steps <- acc.steps + c.c_stats.Eval.steps;
      acc.nodes <- acc.nodes + c.c_nodes;
      add (if warm then acc.cache_warm_ms else acc.cache_cold_ms) ms;
      Some c

let run_round env acc rng ~edits =
  Array.iter
    (fun inp ->
      probe ();
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let o = Service.process_one env.cfg ~id:inp.name ~path:inp.path in
      let ms = (now () -. t0) *. !scale in
      acc.kwords <- acc.kwords +. ((Gc.minor_words () -. w0) /. 1000.0);
      acc.busy_ms <- acc.busy_ms +. ms;
      ignore (record acc inp o ~ms))
    (round_order env rng ~edits)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l -> (
                try Some (Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
                with _ -> go ())
          in
          go ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let emit_e2e acc =
  let per_req x = float_of_int x /. float_of_int (max 1 acc.passed) in
  emit "compile_ms_p50" (percentile 0.5 acc.compile_ms) "ms";
  emit "compile_ms_p95" (percentile 0.95 acc.compile_ms) "ms";
  emit "throughput_pps" (float_of_int acc.attempted /. (acc.busy_ms /. 1000.0)) "programs/s";
  emit "run_ms_p50" (percentile 0.5 acc.run_ms) "ms";
  emit "run_words_per_req" (per_req acc.words) "words";
  emit "run_steps_per_req" (per_req acc.steps) "steps";
  emit "code_nodes_per_req" (per_req acc.nodes) "nodes";
  emit "compile_kwords_per_req" (acc.kwords /. float_of_int (max 1 acc.attempted)) "kwords"

(* ------------------------------------------------------------------ *)
(* Layer-by-layer replay (--trace 1)                                   *)
(* ------------------------------------------------------------------ *)

let pass_families =
  [ "float-in"; "contify"; "spec-constr"; "demand"; "simplify"; "cse"; "float-out" ]

(* Per-layer sums; each row is reported as its mean per observation. *)
let layers : (string, float * int) Hashtbl.t = Hashtbl.create 64

let observe name v =
  let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt layers name) in
  Hashtbl.replace layers name (s +. v, n + 1)

(* A wall-clock row, at reference speed. *)
let observe_ms name v = observe name (v *. !scale)

let layer_mean name =
  match Hashtbl.find_opt layers name with
  | Some (s, n) when n > 0 -> s /. float_of_int n
  | _ -> 0.0

(* One span per call into a layer, tagged with its request. *)
let span req id name f =
  Span.with_span_timed ~cat:"layer" name (fun () ->
      Span.annotate "req" (Telemetry.Json.Int req);
      Span.annotate "id" (Telemetry.Json.Str id);
      f ())

(* The surface front end, one public call at a time, as
   [Prelude.compile] chains it, then the lint the service runs on it.
   Returns the front-end and lint times (the standalone tokenize is
   extra work, reported but not summed). *)
let replay_surface req id text =
  let src = Fj_surface.Prelude.source ^ "\n" ^ text in
  let toks, lex_ms = span req id "surface.lex" (fun () -> Fj_surface.Lexer.tokenize src) in
  let prog, parse_ms = span req id "surface.parse" (fun () -> Fj_surface.Parser.parse src) in
  let checked, infer_ms =
    span req id "surface.infer" (fun () -> Fj_surface.Infer.check_program prog)
  in
  let core, link_ms = span req id "surface.link" (fun () -> Fj_surface.Infer.link checked) in
  observe_ms "surface.lex_ms" lex_ms;
  observe_ms "surface.parse_ms" (parse_ms -. lex_ms);
  observe_ms "surface.infer_ms" infer_ms;
  observe_ms "surface.link_ms" link_ms;
  observe "surface.tokens_per_ms" (float_of_int (List.length toks) /. (lex_ms *. !scale));
  let denv = checked.Fj_surface.Infer.env in
  let _, lint_ms = span req id "lint" (fun () -> Lint.lint_result denv core) in
  observe_ms "lint.ms" lint_ms;
  (denv, core, parse_ms +. infer_ms +. link_ms, lint_ms)

(* The service's [Full] attempt replayed call by call; returns the
   compile-layer time and the output bytes. *)
let replay_compile env req inp =
  Context.with_fresh @@ fun () ->
  let text, read_ms = span req inp.name "frontend.read" (fun () -> read_file inp.path) in
  let denv, core, front_ms, lint_ms =
    if inp.surface then replay_surface req inp.name text
    else
      let core, ms =
        span req inp.name "frontend.sexp_read" (fun () -> Sexp.read Datacon.builtins text)
      in
      (Datacon.builtins, core, ms, 0.0)
  in
  observe_ms "frontend.ms" (read_ms +. front_ms);
  let (core', report), total_ms =
    span req inp.name "pipeline" (fun () ->
        Pipeline.run_report (full_pipeline env.cfg denv) core)
  in
  let passes = Pipeline.passes report in
  let fam_sum fam f =
    List.fold_left
      (fun acc (p : Pipeline.pass_record) ->
        let family =
          match String.index_opt p.Pipeline.pass ' ' with
          | Some i -> String.sub p.Pipeline.pass 0 i
          | None -> p.Pipeline.pass
        in
        if String.equal family fam then acc +. f p else acc)
      0.0 passes
  in
  let pass_ms = ref 0.0 in
  List.iter
    (fun fam ->
      let ms = fam_sum fam (fun p -> p.Pipeline.duration_ms) in
      pass_ms := !pass_ms +. ms;
      observe_ms (Printf.sprintf "pipeline.%s.ms" fam) ms;
      observe
        (Printf.sprintf "pipeline.%s.kwords" fam)
        (fam_sum fam (fun p -> p.Pipeline.gc.Gcstats.minor_words /. 1000.0));
      observe
        (Printf.sprintf "pipeline.%s.ticks" fam)
        (fam_sum fam (fun p ->
             float_of_int (List.fold_left (fun s (_, n) -> s + n) 0 p.Pipeline.ticks))))
    pass_families;
  observe_ms "pipeline.total_ms" total_ms;
  observe_ms "pipeline.glue_ms" (total_ms -. !pass_ms);
  observe "pipeline.contified" (float_of_int (Pipeline.contified report));
  let out, write_ms = span req inp.name "sexp.write" (fun () -> Sexp.write core') in
  observe_ms "sexp.write_ms" write_ms;
  (read_ms +. front_ms +. lint_ms +. total_ms +. write_ms, out)

(* Run a checked output on both machines. *)
let replay_run req inp (c : checked) =
  observe_ms "sexp.read_ms" c.c_read_ms;
  observe_ms "eval.ms" c.c_run_ms;
  observe "eval.words" (float_of_int c.c_stats.Eval.words);
  observe "eval.steps" (float_of_int c.c_stats.Eval.steps);
  observe "eval.jumps" (float_of_int c.c_stats.Eval.jumps);
  let prog, lower_ms =
    span req inp.name "machine.lower" (fun () -> Fj_machine.Lower.lower_program c.c_expr)
  in
  let r, run_ms =
    span req inp.name "machine.run" (fun () ->
        match Fj_machine.Bmachine.run ~fuel:eval_fuel prog with
        | v, s -> Ok (v, s)
        | exception Fj_machine.Bmachine.Out_of_fuel -> Error "out of fuel"
        | exception Fj_machine.Bmachine.Stuck m -> Error m)
  in
  match r with
  | Ok (v, s) when Eval.equal_tree (Fj_machine.Bmachine.tree_of_value v) inp.answer ->
      observe_ms "machine.lower_ms" lower_ms;
      observe_ms "machine.run_ms" run_ms;
      observe "machine.words" (float_of_int s.Fj_machine.Bmachine.words)
  | Ok _ -> fail "%s: block machine gives a wrong answer" inp.name
  | Error m -> fail "%s: block machine: %s" inp.name m

type trace_acc = {
  mutable overhead_ratios : float list;
  mutable retries : int;
  mutable respawns : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable requests : int;
}

let cache_stats env =
  match env.cfg.Service.cache with
  | Some c -> Cache.stats c
  | None -> { Cache.hits = 0; misses = 0; stores = 0; quarantined = 0 }

(* One request, three ways: untraced through the service (the cache
   and GC rows come from this call, which meets the cache first), then
   traced through the service, then replayed call by call. The layer
   rows of the replay plus [service.overhead_ms] sum to the traced
   [process_one] time. *)
let traced_request env acc ta req inp =
  let id = inp.name in
  probe ();
  let s0 = cache_stats env in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let o = Service.process_one env.cfg ~id ~path:inp.path in
  let u_ms = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let s1 = cache_stats env in
  ta.requests <- ta.requests + 1;
  ta.hits <- ta.hits + s1.Cache.hits - s0.Cache.hits;
  ta.misses <- ta.misses + s1.Cache.misses - s0.Cache.misses;
  ta.stores <- ta.stores + s1.Cache.stores - s0.Cache.stores;
  ta.retries <- ta.retries + List.length o.Service.failures;
  observe "gc.minor_per_req" (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
  observe "gc.major_per_req" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  match record acc inp o ~ms:(u_ms *. !scale) with
  | None -> ()
  | Some c ->
      let _, t_ms =
        span req id "service.process_one" (fun () ->
            Service.process_one env.cfg ~id ~path:inp.path)
      in
      ta.overhead_ratios <- ((t_ms -. u_ms) /. u_ms) :: ta.overhead_ratios;
      let layers_ms, out = replay_compile env req inp in
      if Some out <> inp.output then fail "%s: layer replay output differs from the service's" id;
      observe_ms "service.overhead_ms" (t_ms -. layers_ms);
      replay_run req inp c

(* Batch throughput at two workers over one at one worker, on one
   round of this workload's requests, cut to the admission queue's
   capacity so that none is shed. *)
let scaling env rng ta =
  let order = round_order env rng ~edits:false in
  let order = Array.sub order 0 (min (Array.length order) env.cfg.Service.queue_capacity) in
  let by_id = Hashtbl.create 128 in
  Array.iter (fun inp -> Hashtbl.replace by_id inp.name inp) order;
  let wall jobs =
    let b =
      Service.run_batch { env.cfg with Service.jobs }
        (Array.to_list (Array.map (fun inp -> (inp.name, inp.path)) order))
    in
    ta.respawns <- ta.respawns + b.Service.b_respawns;
    List.iter
      (fun (o : Service.outcome) ->
        ignore (check ~parallel:(jobs > 1) (Hashtbl.find by_id o.Service.id) o))
      b.Service.b_outcomes;
    b.Service.b_wall_ms
  in
  median (List.init (if !smoke then 1 else 2) (fun _ -> wall 1 /. wall 2))

let write_trace path collector =
  mkdir_p (Filename.dirname path);
  let events =
    Span.thread_name_event ~tid:1 ("fjbench " ^ !workload)
    :: Span.trace_events ~tid:1 collector
  in
  write_file path
    (Telemetry.Json.to_string
       Telemetry.Json.(
         Obj
           [
             ("traceEvents", Arr events);
             ("displayTimeUnit", Str "ms");
             ("otherData", Obj [ ("dropped_spans", Int (Span.dropped collector)) ]);
           ]))

let emit_layers env ta ~scaling_j2 =
  let m name = emit name (layer_mean name) in
  m "frontend.ms" "ms";
  List.iter (fun n -> m ("surface." ^ n) "ms") [ "lex_ms"; "parse_ms"; "infer_ms"; "link_ms" ];
  m "surface.tokens_per_ms" "tokens/ms";
  m "lint.ms" "ms";
  List.iter
    (fun fam ->
      m (Printf.sprintf "pipeline.%s.ms" fam) "ms";
      m (Printf.sprintf "pipeline.%s.kwords" fam) "kwords";
      m (Printf.sprintf "pipeline.%s.ticks" fam) "ticks")
    pass_families;
  m "pipeline.total_ms" "ms";
  m "pipeline.glue_ms" "ms";
  m "pipeline.contified" "count";
  m "sexp.write_ms" "ms";
  m "sexp.read_ms" "ms";
  m "service.overhead_ms" "ms";
  emit "service.retries" (float_of_int ta.retries) "count";
  emit "service.respawns" (float_of_int ta.respawns) "count";
  emit "service.scaling_j2" scaling_j2 "x";
  emit "service.diverged_frac"
    (float_of_int !diverged /. float_of_int (max 1 !parallel_outputs))
    "fraction";
  let per_req x = float_of_int x /. float_of_int (max 1 ta.requests) in
  let lookups = ta.hits + ta.misses in
  emit "cache.hit_rate"
    (if lookups = 0 then 0.0 else float_of_int ta.hits /. float_of_int lookups)
    "fraction";
  emit "cache.hits_per_req" (per_req ta.hits) "count";
  emit "cache.misses_per_req" (per_req ta.misses) "count";
  emit "cache.stores_per_req" (per_req ta.stores) "count";
  emit "cache.quarantined" (float_of_int (cache_stats env).Cache.quarantined) "count";
  m "gc.minor_per_req" "count";
  m "gc.major_per_req" "count";
  m "eval.ms" "ms";
  m "eval.words" "words";
  m "eval.steps" "steps";
  m "eval.jumps" "jumps";
  m "machine.lower_ms" "ms";
  m "machine.run_ms" "ms";
  m "machine.words" "words";
  emit "trace.overhead_pct" (100.0 *. median ta.overhead_ratios) "%"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let measure_loop f =
  let t0 = now () in
  let rounds = ref 0 in
  while !rounds = 0 || ((not !smoke) && now () -. t0 < !seconds *. 1000.0) do
    f ();
    incr rounds
  done

let run dir =
  if not (List.mem !workload workloads) then
    failwith (Printf.sprintf "--workload must be one of %s" (String.concat ", " workloads));
  (* Set-up is repeated and reported as the median; the last one is
     the one the run uses. *)
  let reps = if !smoke then 1 else 3 in
  let setups =
    List.init reps (fun k ->
        let d = Filename.concat dir (Printf.sprintf "setup%d" k) in
        mkdir_p d;
        probe ~force:true ();
        let t0 = now () in
        let env = setup !workload d in
        (env, (now () -. t0) *. !scale /. 1000.0))
  in
  let env = fst (List.nth setups (reps - 1)) in
  List.iteri (fun k (e, _) -> if k < reps - 1 then remove_tree e.dir) setups;
  let rng = Random.State.make [| !seed; 0x5eed |] in
  if not !smoke then run_round env (fresh_e2e ()) rng ~edits:false;
  let acc = fresh_e2e () in
  if !trace = 0 then begin
    measure_loop (fun () -> run_round env acc rng ~edits:true);
    emit "setup_s" (median (List.map snd setups)) "s";
    emit_e2e acc
  end
  else begin
    (* The most recent spans only: gen-small traces 17,000 requests in
       30 s, and keeping all their spans took 400 MB. 20,000 spans hold
       a whole nofib run. *)
    let collector = Span.create ~cap:20_000 () in
    let ta =
      {
        overhead_ratios = [];
        retries = 0;
        respawns = 0;
        hits = 0;
        misses = 0;
        stores = 0;
        requests = 0;
      }
    in
    (* A workload that sends no surface programs still reports the
       surface and lint rows, measured on the pinned corpus. *)
    let surface_pool =
      if Array.exists (fun i -> i.surface) env.inputs then [||] else load_corpus ()
    in
    let req = ref 0 in
    Span.with_collector collector (fun () ->
        measure_loop (fun () ->
            Array.iter
              (fun inp ->
                incr req;
                traced_request env acc ta !req inp)
              (round_order env rng ~edits:true);
            Array.iter
              (fun inp ->
                decr req;
                ignore (replay_surface !req inp.name inp.text))
              surface_pool));
    let scaling_j2 = scaling env rng ta in
    if !trace_out <> "" then write_trace !trace_out collector;
    emit_layers env ta ~scaling_j2
  end;
  emit "peak_rss_mb" (peak_rss_mb ()) "MB";
  emit "bench.slowdown" (median !slowdowns) "x";
  emit "failed_frac" (float_of_int !failures /. float_of_int (max 1 acc.attempted)) "fraction";
  emit "attempted" (float_of_int acc.attempted) "requests";
  emit "failed" (float_of_int !failures) "requests";
  if env.cfg.Service.cache <> None then begin
    let s = cache_stats env in
    emit "cache.hits" (float_of_int s.Cache.hits) "count";
    emit "cache.misses" (float_of_int s.Cache.misses) "count";
    emit "cache.stores" (float_of_int s.Cache.stores) "count";
    emit "cache.warm_ms_p50" (percentile 0.5 acc.cache_warm_ms) "ms";
    emit "cache.cold_ms_p50" (percentile 0.5 acc.cache_cold_ms) "ms"
  end;
  List.iter (fun (n, v, u) -> Printf.printf "%s %.17g %s\n" n v u) (List.rev !metrics)

let () =
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fjbench --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let default_root = ".fjbench-work" in
  let dir =
    if !work_dir <> "" then !work_dir
    else Filename.concat default_root (string_of_int (Unix.getpid ()))
  in
  let code =
    Fun.protect
      ~finally:(fun () ->
        remove_tree dir;
        if !work_dir = "" then try Sys.rmdir default_root with Sys_error _ -> ())
      (fun () ->
        mkdir_p dir;
        match run dir with
        | () -> if !failures > 0 then 1 else 0
        | exception (Failure m | Sys_error m) ->
            Fmt.epr "fjbench: %s@." m;
            2)
  in
  exit code
