(** [fjc] — the System F_J compiler driver.

    Subcommands:

    - [fjc run FILE]    — compile and evaluate [main] (choose the
      optimisation mode with [--mode]); prints the result and the
      abstract machine's allocation statistics;
    - [fjc dump FILE]   — print the optimised Core (the paper's
      "Core dumps" users pore over, Sec. 8); [--report] adds the
      per-pass trace and the simplifier-tick table;
    - [fjc trace FILE]  — optimise and write the structured JSON trace
      of the whole pipeline, with per-pass GC/allocation accounting
      ([--out -] for stdout); [--perfetto] exports Chrome trace-event
      JSON with a GC counter track; [--folded] exports collapsed
      flamegraph stacks instead ([--folded-weight words] weights by
      compiler allocation);
    - [fjc stats FILE]  — run under every compiler configuration and
      tabulate allocations side by side ([--json PATH|-] for
      machine-readable rows);
    - [fjc profile FILE] — run under baseline and join-points with the
      allocation profiler on and print the per-site cost-centre table
      side by side (words, %, steps per binder); [--lower] profiles on
      the block machine instead of the Fig. 3 evaluator; [--json]
      additionally dumps both profiles (with the machine event trace)
      as JSON;
    - [fjc explain FILE] — run the pipeline with the decision ledger on
      and narrate, per binder, every rewrite each pass fired or
      rejected and why ([--binder]/[--pass] filter; [--json] dumps the
      events; [--inline-threshold]/[--dup-threshold] reproduce a
      decision at other settings);
    - [fjc erase FILE]  — optimise, erase join points (Thm. 5), Lint
      the resulting System F term and print it;
    - [fjc lower FILE]  — lower to the block IR and print it, or run it
      on the block machine with [--exec];
    - [fjc cover FILE...] — optimization coverage of a corpus: which of
      the optimizer's possible behaviours (per-configuration Fig. 4
      ticks, ledger outcomes, incident causes) the corpus exercised;
      [--json] dumps the mergeable [fj-cover/1] map, [--require PCT]
      gates (exit 3) on the axiom-tick percentage;
    - [fjc fuzz]        — differential fuzzing: seeded well-typed random
      programs compiled under every configuration and compared against
      the unoptimised program on every observable; failures are
      minimized and reported with their replay seed (exit 3 whenever a
      counterexample is found); [--cover-guided] steers generation
      toward programs that reach new coverage points;
    - [fjc bench diff OLD NEW] — align two [fj-bench/1] trajectory
      files and report per-metric deltas; [--gate PCT] exits 3 on
      regressions beyond the gate (and, for timings, beyond recorded
      sample noise); [--md]/[--json] write report artifacts.

    [run], [dump] and [trace] compile under the self-healing [Recover]
    guard policy (a failing pass is rolled back and reported as an
    incident); [--strict] restores the aborting behaviour, and
    [--fault POINT:BEHAVIOUR] arms a named fault-injection point to
    demonstrate or test the machinery. *)

open Fj_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

type loaded = { denv : Datacon.env; core : Syntax.expr }

let load ~no_prelude path =
  let src = read_file path in
  let reject what msg (p : Fj_surface.Ast.pos) =
    if p.line > 0 then Fmt.epr "%s:%d:%d: %s: %s@." path p.line p.col what msg
    else Fmt.epr "%s: %s: %s@." path what msg;
    exit 2
  in
  let denv, core =
    match
      if no_prelude then Fj_surface.Infer.compile src
      else Fj_surface.Prelude.compile src
    with
    | r -> r
    | exception Fj_surface.Lexer.Lex_error (m, p) -> reject "lex error" m p
    | exception Fj_surface.Parser.Parse_error (m, p) -> reject "parse error" m p
    | exception Fj_surface.Infer.Type_error (m, p) -> reject "type error" m p
  in
  (match Lint.lint_result denv core with
  | Ok _ -> ()
  | Error err ->
      Fmt.epr "fjc: internal error: elaborated core does not lint:@.%a@."
        Lint.pp_error err;
      exit 2);
  { denv; core }

(* One output-channel policy for every [--json PATH|-] / [--out PATH|-]
   flag: [dest = "-"] prints the payload to stdout; otherwise it is
   written (newline-terminated) to the named file with a "wrote" note.
   Returns the exit code — 1 when the file cannot be opened. *)
let write_output ~what dest content =
  if dest = "-" then begin
    print_endline content;
    0
  end
  else
    match open_out dest with
    | exception Sys_error m ->
        Fmt.epr "fjc: cannot write %s: %s@." what m;
        1
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc content;
            output_char oc '\n');
        Fmt.pr "fjc: wrote %s@." dest;
        0

let mode_conv =
  Cmdliner.Arg.enum
    [
      ("baseline", Pipeline.Baseline);
      ("join-points", Pipeline.Join_points);
      ("no-cc", Pipeline.No_cc);
      ("none", Pipeline.No_cc);
    ]

open Cmdliner

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Surface-language source file.")

let no_prelude_flag =
  Arg.(
    value & flag
    & info [ "no-prelude" ] ~doc:"Do not implicitly import the prelude.")

let mode_flag =
  Arg.(
    value
    & opt mode_conv Pipeline.Join_points
    & info [ "mode"; "m" ]
        ~doc:
          "Compiler configuration: $(b,join-points) (the paper's), \
           $(b,baseline) (pre-join-point GHC), or $(b,no-cc) (commuting \
           conversions disabled).")

let iters_flag =
  Arg.(
    value & opt int 3
    & info [ "iterations" ] ~doc:"Pipeline rounds (float-in/contify/simplify).")

(* The driver's default inlining budget is deliberately larger than the
   library default (whole kernels, not random terms); commands that
   expose the threshold flags pass them through so a decision quoted by
   [fjc explain] can be reproduced at any setting. *)
let default_inline_threshold = 300
let default_dup_threshold = 12

let inline_threshold_flag =
  Arg.(
    value
    & opt int default_inline_threshold
    & info [ "inline-threshold" ] ~docv:"N"
        ~doc:"Largest unfolding the simplifier splices at a call site.")

let dup_threshold_flag =
  Arg.(
    value
    & opt int default_dup_threshold
    & info [ "dup-threshold" ] ~docv:"N"
        ~doc:
          "Largest continuation/alternative copied into branches rather \
           than shared as a join point.")

let pipeline_config ?(inline_threshold = default_inline_threshold)
    ?(dup_threshold = default_dup_threshold) ?(policy = Guard.Recover) mode
    iters (l : loaded) =
  Pipeline.default_config ~mode ~iterations:iters ~datacons:l.denv
    ~inline_threshold ~dup_threshold ~policy ()

let optimized ?inline_threshold ?dup_threshold ?policy mode iters (l : loaded)
    =
  Pipeline.run
    (pipeline_config ?inline_threshold ?dup_threshold ?policy mode iters l)
    l.core

(* The driver compiles under the self-healing [Recover] policy: a
   misbehaving optimisation pass is rolled back and reported, not
   allowed to kill the compilation. [--strict] restores the abort
   behaviour (the posture for debugging the compiler itself). *)
let policy_flag =
  Arg.(
    value
    & vflag Guard.Recover
        [
          ( Guard.Strict,
            info [ "strict" ]
              ~doc:
                "Abort compilation when a pass fails (raises, breaks Lint) \
                 instead of rolling the pass back and continuing." );
          ( Guard.Recover,
            info [ "recover" ]
              ~doc:
                "Roll back and report a failing pass, continuing from the \
                 pre-pass tree (the default)." );
        ])

(* --fault POINT:BEHAVIOUR arms a named failure point inside the
   optimizer before compiling — the demonstration (and CI test) hook
   for the recovery machinery. *)
let fault_conv =
  let parse s =
    match Fault.parse_spec s with Ok v -> Ok v | Error m -> Error (`Msg m)
  in
  let print ppf (p, b, limit) =
    match limit with
    | None -> Fmt.pf ppf "%s:%s" p (Fault.behaviour_name b)
    | Some n -> Fmt.pf ppf "%s:%s:%d" p (Fault.behaviour_name b) n
  in
  Arg.conv (parse, print)

let fault_flag =
  Arg.(
    value & opt_all fault_conv []
    & info [ "fault" ] ~docv:"POINT:BEHAVIOUR[:N]"
        ~doc:
          "Arm a named fault-injection point inside the optimizer or the \
           compile service (e.g. $(b,simplify/result:raise), \
           $(b,service/worker:raise:2)); repeatable. An optional $(b,:N) \
           bounds how many times the point fires before auto-disarming (a \
           transient fault the retry machinery must absorb). Under the \
           default recover policy a failing pass is rolled back; under \
           $(b,--strict) compilation aborts.")

let arm_faults faults = List.iter (fun (p, b, limit) -> Fault.arm ?limit p b) faults

let report_incidents (r : Pipeline.report) =
  List.iter
    (fun i -> Fmt.epr "fjc: incident: %a@." Guard.pp_incident i)
    (Pipeline.incidents r)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let doc = "Compile and evaluate a program." in
  let run file no_prelude mode iters unopt inline_threshold dup_threshold
      policy faults =
    arm_faults faults;
    let l = load ~no_prelude file in
    let e =
      if unopt then l.core
      else begin
        let cfg =
          pipeline_config ~inline_threshold ~dup_threshold ~policy mode iters l
        in
        let e, r = Pipeline.run_report cfg l.core in
        report_incidents r;
        e
      end
    in
    (match Lint.lint_result l.denv e with
    | Ok _ -> ()
    | Error err ->
        Fmt.epr "fjc: optimiser broke the program:@.%a@." Lint.pp_error err;
        exit 2);
    let t, s = Eval.run_deep e in
    Fmt.pr "%a@." Eval.pp_tree t;
    Fmt.pr "-- %a@." Eval.pp_stats s;
    0
  in
  let unopt_flag =
    Arg.(value & flag & info [ "O0"; "unoptimised" ] ~doc:"Skip the optimiser.")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag
      $ unopt_flag $ inline_threshold_flag $ dup_threshold_flag $ policy_flag
      $ fault_flag)

(* ------------------------------------------------------------------ *)
(* dump                                                                *)
(* ------------------------------------------------------------------ *)

let dump_cmd =
  let doc = "Print the optimised Core." in
  let run file no_prelude mode iters unopt report inline_threshold
      dup_threshold policy faults =
    arm_faults faults;
    let l = load ~no_prelude file in
    if unopt then Fmt.pr "%a@." Pretty.pp l.core
    else begin
      let cfg =
        pipeline_config ~inline_threshold ~dup_threshold ~policy mode iters l
      in
      let e, r = Pipeline.run_report cfg l.core in
      report_incidents r;
      if report then Fmt.pr "-- passes:@.%a@.@." Pipeline.pp_report r;
      Fmt.pr "%a@." Pretty.pp e
    end;
    0
  in
  let unopt_flag =
    Arg.(value & flag & info [ "O0"; "unoptimised" ] ~doc:"Dump the input core.")
  in
  let report_flag =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:"Show the per-pass trace and the simplifier-tick table.")
  in
  Cmd.v (Cmd.info "dump" ~doc)
    Term.(
      const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag
      $ unopt_flag $ report_flag $ inline_threshold_flag $ dup_threshold_flag
      $ policy_flag $ fault_flag)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let doc = "Optimise and emit the structured JSON trace of the pipeline." in
  let run file no_prelude mode iters out perfetto folded folded_weight
      inline_threshold dup_threshold policy faults =
    arm_faults faults;
    let l = load ~no_prelude file in
    match perfetto with
    | Some dest ->
        (* Chrome trace-event export: compile under {e every}
           configuration so the three timelines sit side by side, one
           Perfetto track each. Same shared [--out]-style writer as
           every other structured output. *)
        let reports =
          List.map
            (fun mode ->
              let cfg =
                pipeline_config ~inline_threshold ~dup_threshold ~policy mode
                  iters l
              in
              let _, r = Pipeline.run_report cfg l.core in
              report_incidents r;
              r)
            [ Pipeline.Baseline; Pipeline.Join_points; Pipeline.No_cc ]
        in
        write_output ~what:"perfetto trace" dest
          (Telemetry.Json.to_string (Pipeline.perfetto_json ~file reports))
    | None -> (
        let cfg =
          pipeline_config ~inline_threshold ~dup_threshold ~policy mode iters l
        in
        let _, r = Pipeline.run_report cfg l.core in
        report_incidents r;
        match folded with
        | Some dest ->
            (* Collapsed-stack flamegraph lines instead of the JSON
               trace: pipe to flamegraph.pl / inferno, or load in
               speedscope. *)
            write_output ~what:"folded flamegraph" dest
              (Pipeline.folded ~weight:folded_weight r)
        | None -> write_output ~what:"trace" out (Pipeline.report_to_json r))
  in
  let out_flag =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "out"; "o" ] ~docv:"PATH"
          ~doc:"Where to write the trace; $(b,-) for stdout.")
  in
  let perfetto_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"PATH"
          ~doc:
            "Instead of the single-configuration trace, compile under \
             $(b,every) configuration and write Chrome trace-event JSON \
             (one Perfetto track per configuration, histogram summaries \
             under otherData) to $(docv); $(b,-) for stdout. Load it in \
             ui.perfetto.dev or chrome://tracing.")
  in
  let folded_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"PATH"
          ~doc:
            "Instead of the JSON trace, write the compile's span tree as \
             collapsed flamegraph stacks ($(b,frame;frame;frame WEIGHT) \
             lines, exclusive weights) to $(docv); $(b,-) for stdout. \
             Feed to flamegraph.pl, inferno-flamegraph, or speedscope.")
  in
  let folded_weight_flag =
    Arg.(
      value
      & opt
          (enum [ ("time", Span.Self_time); ("words", Span.Alloc_words) ])
          Span.Self_time
      & info [ "folded-weight" ] ~docv:"KIND"
          ~doc:
            "What $(b,--folded) weights count: $(b,time) (exclusive \
             wall-clock microseconds, the default) or $(b,words) \
             (exclusive words the compiler allocated — an allocation \
             flamegraph).")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag
      $ out_flag $ perfetto_flag $ folded_flag $ folded_weight_flag
      $ inline_threshold_flag $ dup_threshold_flag $ policy_flag $ fault_flag)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let doc = "Compare allocation under every compiler configuration." in
  let run file no_prelude iters json =
    let l = load ~no_prelude file in
    let t0, s0 = Eval.run_deep l.core in
    let rows = ref [] in
    let row name (s : Eval.stats) extra =
      if Option.is_some json then
        rows :=
          Telemetry.Json.(
            Obj
              ([
                 ("configuration", Str name);
                 ("words", Int s.Eval.words);
                 ("objects", Int s.Eval.objects);
                 ("steps", Int s.Eval.steps);
                 ("jumps", Int s.Eval.jumps);
               ]
              @ extra))
          :: !rows
      else
        Fmt.pr "%-28s %10d %10d %8d %8d@." name s.Eval.words s.Eval.objects
          s.Eval.steps s.Eval.jumps
    in
    if Option.is_none json then
      Fmt.pr "%-28s %10s %10s %8s %8s@." "configuration" "words" "objects"
        "steps" "jumps";
    row "unoptimised" s0 [];
    List.iter
      (fun mode ->
        let cfg =
          Pipeline.default_config ~mode ~iterations:iters ~datacons:l.denv
            ~inline_threshold:300 ()
        in
        let e, r = Pipeline.run_report cfg l.core in
        let t, s = Eval.run_deep e in
        (match Eval.tree_mismatch t0 t with
        | None -> ()
        | Some where ->
            (* Which configuration diverged, where the results first
               disagree, and both trees in full — enough to reproduce
               the miscompilation without rerunning. *)
            Fmt.epr "fjc: RESULT MISMATCH under %s@."
              (Pipeline.mode_name mode);
            Fmt.epr "  %s@." where;
            Fmt.epr "  unoptimised: %a@." Eval.pp_tree t0;
            Fmt.epr "  %-12s %a@."
              (Pipeline.mode_name mode ^ ":")
              Eval.pp_tree t;
            exit 2);
        row (Pipeline.mode_name mode) s
          [
            ("total_ticks", Telemetry.Json.Int (Pipeline.total_ticks r));
            ("contified", Telemetry.Json.Int (Pipeline.contified r));
          ])
      [ Pipeline.Baseline; Pipeline.Join_points; Pipeline.No_cc ];
    match json with
    | Some dest ->
        write_output ~what:"stats" dest
          (Telemetry.Json.to_string
             (Telemetry.Json.Obj
                [
                  ("file", Telemetry.Json.Str file);
                  ("result", Telemetry.Json.Str (Fmt.str "%a" Eval.pp_tree t0));
                  ("rows", Telemetry.Json.Arr (List.rev !rows));
                ]))
    | None ->
        Fmt.pr "result: %a@." Eval.pp_tree t0;
        0
  in
  let json_flag =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Emit the rows as JSON instead of the table, to $(docv); \
             $(b,-), or the flag alone, for stdout.")
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ file_arg $ no_prelude_flag $ iters_flag $ json_flag)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let doc =
    "Per-site allocation profile (cost centres), baseline vs join points."
  in
  let run file no_prelude iters lower trace_cap json_out =
    let l = load ~no_prelude file in
    (* One run under one mode, profiler attached. *)
    let profiled mode =
      let e = optimized mode iters l in
      let prof = Profile.create ~trace_cap () in
      let stats =
        if lower then
          let prog = Fj_machine.Lower.lower_program e in
          snd (Fj_machine.Bmachine.run ~profile:prof prog)
        else snd (Eval.run_deep ~profile:prof e)
      in
      (prof, stats)
    in
    let pb, sb = profiled Pipeline.Baseline in
    let pj, sj = profiled Pipeline.Join_points in
    (* Merge the two cost-centre tables on the site label so each
       binder's baseline and join-points costs sit side by side. *)
    let module SM = Map.Make (String) in
    let tbl = ref SM.empty in
    List.iter
      (fun (s : Profile.site) ->
        tbl := SM.add s.site_label (Some s, None) !tbl)
      (Profile.sites pb);
    List.iter
      (fun (s : Profile.site) ->
        tbl :=
          SM.update s.site_label
            (function
              | Some (b, _) -> Some (b, Some s) | None -> Some (None, Some s))
            !tbl)
      (Profile.sites pj);
    let twb = max 1 (Profile.total_words pb) in
    let twj = max 1 (Profile.total_words pj) in
    let rows =
      List.sort
        (fun (_, (b1, j1)) (_, (b2, j2)) ->
          let words = function
            | Some (s : Profile.site) -> s.s_words
            | None -> 0
          in
          compare
            (words b2 + words j2, words b2)
            (words b1 + words j1, words b1))
        (SM.bindings !tbl)
    in
    Fmt.pr "%-22s %-7s | %10s %6s %8s | %10s %6s %8s@." "site" "kind"
      "base wds" "%" "steps" "join wds" "%" "steps";
    Fmt.pr "%s@." (String.make 80 '-');
    List.iter
      (fun (label, (b, j)) ->
        let kind =
          match (j, b) with
          | Some (s : Profile.site), _ | None, Some s ->
              Profile.kind_name s.site_kind
          | None, None -> "?"
        in
        let cell ppf (total, s) =
          match s with
          | None -> Fmt.pf ppf "%10s %6s %8s" "-" "-" "-"
          | Some (s : Profile.site) ->
              Fmt.pf ppf "%10d %5.1f%% %8d" s.s_words
                (100.0 *. float_of_int s.s_words /. float_of_int total)
                s.s_steps
        in
        Fmt.pr "%-22s %-7s | %a | %a@." label kind cell (twb, b) cell (twj, j))
      rows;
    Fmt.pr "%s@." (String.make 80 '-');
    Fmt.pr "%-30s | %a@." "baseline" Eval.pp_stats sb;
    Fmt.pr "%-30s | %a@." "join-points" Eval.pp_stats sj;
    (* The per-site form of the paper's claim: join-labelled sites
       allocate nothing. *)
    let bad =
      List.filter (fun (s : Profile.site) -> s.s_words > 0)
        (Profile.join_sites pj)
    in
    (if bad = [] then
       Fmt.pr "join sites allocate zero words: OK (%d site(s))@."
         (List.length (Profile.join_sites pj))
     else
       List.iter
         (fun (s : Profile.site) ->
           Fmt.epr "fjc: join site %s allocated %d words!@." s.site_label
             s.s_words)
         bad);
    let wrote =
      match json_out with
      | None -> 0
      | Some path ->
          let json =
            Telemetry.Json.(
              Obj
                [
                  ("file", Str file);
                  ("machine", Str (if lower then "block" else "fig3"));
                  ("baseline", Profile.to_json ~stats:sb pb);
                  ("join_points", Profile.to_json ~stats:sj pj);
                ])
          in
          write_output ~what:"profile" path (Telemetry.Json.to_string json)
    in
    if bad = [] && wrote = 0 then 0 else 1
  in
  let lower_flag =
    Arg.(
      value & flag
      & info [ "lower" ]
          ~doc:"Profile the lowered program on the block machine.")
  in
  let trace_cap_flag =
    Arg.(
      value
      & opt int Profile.default_trace_cap
      & info [ "trace-cap" ] ~docv:"N"
          ~doc:"Event ring-buffer bound (0 disables the event trace).")
  in
  let json_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Also dump both profiles (sites + event trace) as JSON; $(b,-) \
             for stdout.")
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ file_arg $ no_prelude_flag $ iters_flag $ lower_flag
      $ trace_cap_flag $ json_flag)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let doc =
    "Explain the optimizer's decisions, per binder: every rewrite each \
     pass fired or rejected, with the structured reason."
  in
  let run file no_prelude mode iters inline_threshold dup_threshold binder
      pass_filter json_out =
    let l = load ~no_prelude file in
    let cfg = pipeline_config ~inline_threshold ~dup_threshold mode iters l in
    let _, r = Pipeline.run_report cfg l.core in
    (* Tag each ledger event with the pipeline pass that recorded it
       (e.g. ["contify (2)"]), in run order. *)
    let tagged =
      List.concat_map
        (fun (p : Pipeline.pass_record) ->
          List.map (fun ev -> (p.Pipeline.pass, ev)) p.Pipeline.decisions)
        (Pipeline.passes r)
    in
    let prefix_of s p =
      String.length s >= String.length p
      && String.sub s 0 (String.length p) = p
    in
    let selected =
      List.filter
        (fun (plabel, (ev : Decision.event)) ->
          (match binder with
          | None -> true
          | Some b -> String.equal ev.Decision.d_site b)
          &&
          match pass_filter with
          | None -> true
          | Some p -> String.equal ev.Decision.d_pass p || prefix_of plabel p)
        tagged
    in
    let events = List.map snd selected in
    (* Narrative: decisions grouped per site, in order of first
       appearance; suppressed when the JSON goes to stdout. *)
    (if json_out <> Some "-" then begin
       let module SM = Map.Make (String) in
       let order = ref [] in
       let groups = ref SM.empty in
       List.iter
         (fun ((_, ev) as item) ->
           let site = ev.Decision.d_site in
           match SM.find_opt site !groups with
           | None ->
               order := site :: !order;
               groups := SM.add site [ item ] !groups
           | Some items -> groups := SM.add site (item :: items) !groups)
         selected;
       List.iter
         (fun site ->
           Fmt.pr "%s:@." site;
           List.iter
             (fun (plabel, (ev : Decision.event)) ->
               match ev.Decision.d_verdict with
               | Decision.Fired ->
                   Fmt.pr "  %-18s %s fired@." plabel
                     (Decision.action_name ev.Decision.d_action)
               | Decision.Rejected reason ->
                   Fmt.pr "  %-18s %s rejected: %a@." plabel
                     (Decision.action_name ev.Decision.d_action)
                     Decision.pp_reason reason)
             (List.rev (SM.find site !groups)))
         (List.rev !order);
       Fmt.pr "-- %d decision(s): %d fired, %d rejected@."
         (List.length events) (Decision.fired events)
         (Decision.rejected events);
       List.iter
         (fun (name, n) -> Fmt.pr "--   %-28s %d@." name n)
         (Decision.reason_counts events)
     end);
    match json_out with
    | None -> 0
    | Some path ->
        let event_json (plabel, ev) =
          match Decision.event_json ev with
          | Telemetry.Json.Obj fields ->
              Telemetry.Json.Obj
                (("pipeline_pass", Telemetry.Json.Str plabel) :: fields)
          | j -> j
        in
        let json =
          Telemetry.Json.(
            Obj
              [
                ("file", Str file);
                ("mode", Str (Pipeline.mode_name mode));
                ("inline_threshold", Int inline_threshold);
                ("dup_threshold", Int dup_threshold);
                ("events", Arr (List.map event_json selected));
                ("summary", Decision.summary_json events);
              ])
        in
        write_output ~what:"explanation" path (Telemetry.Json.to_string json)
  in
  let binder_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "binder" ] ~docv:"NAME"
          ~doc:"Only decisions whose site is this binder name hint.")
  in
  let pass_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "pass" ] ~docv:"NAME"
          ~doc:
            "Only decisions made by this pass (a deciding pass like \
             $(b,contify), or a pipeline-pass prefix like \
             $(b,simplify (0))).")
  in
  let json_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Also dump the selected decisions (with the run's settings) \
             as JSON; $(b,-) for stdout.")
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag
      $ inline_threshold_flag $ dup_threshold_flag $ binder_flag $ pass_flag
      $ json_flag)

(* ------------------------------------------------------------------ *)
(* erase                                                               *)
(* ------------------------------------------------------------------ *)

let erase_cmd =
  let doc =
    "Optimise, erase join points back to System F (Theorem 5), and print."
  in
  let run file no_prelude mode iters =
    let l = load ~no_prelude file in
    let e = optimized mode iters l in
    let erased = Erase.erase e in
    assert (Erase.is_join_free erased);
    (match Lint.lint_result l.denv erased with
    | Ok ty -> Fmt.pr "-- erased, lints at %a@." Types.pp ty
    | Error err ->
        Fmt.epr "fjc: erasure broke the program:@.%a@." Lint.pp_error err;
        exit 2);
    Fmt.pr "%a@." Pretty.pp erased;
    0
  in
  Cmd.v (Cmd.info "erase" ~doc)
    Term.(const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag)

(* ------------------------------------------------------------------ *)
(* lower                                                               *)
(* ------------------------------------------------------------------ *)

let lower_cmd =
  let doc = "Lower to the block IR (join points become blocks + gotos)." in
  let run file no_prelude mode iters exec =
    let l = load ~no_prelude file in
    let e = optimized mode iters l in
    let prog = Fj_machine.Lower.lower_program e in
    if exec then begin
      let v, s = Fj_machine.Bmachine.run prog in
      Fmt.pr "%a@." Eval.pp_tree (Fj_machine.Bmachine.tree_of_value v);
      Fmt.pr "-- %a@." Fj_machine.Bmachine.pp_stats s
    end
    else Fmt.pr "%a@." Fj_machine.Blockir.pp_program prog;
    0
  in
  let exec_flag =
    Arg.(value & flag & info [ "exec" ] ~doc:"Run on the block machine.")
  in
  Cmd.v (Cmd.info "lower" ~doc)
    Term.(
      const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag
      $ exec_flag)

(* ------------------------------------------------------------------ *)
(* cps                                                                 *)
(* ------------------------------------------------------------------ *)

let cps_cmd =
  let doc =
    "Erase join points and CPS-transform (Sec. 8 comparison); runs both \
     styles and reports size/lambda counts."
  in
  let run file no_prelude mode iters =
    let l = load ~no_prelude file in
    let direct = optimized mode iters l in
    let erased = Erase.erase direct in
    match Cps.transform erased with
    | exception Cps.Unsupported m ->
        Fmt.epr "fjc: program not in the CPS fragment: %s@." m;
        1
    | cpsd ->
        (match Lint.lint_result l.denv cpsd with
        | Ok _ -> ()
        | Error err ->
            Fmt.epr "fjc: CPS output does not lint: %a@." Lint.pp_error err;
            exit 2);
        let td, sd = Eval.run_deep direct in
        let tc, sc = Eval.run_deep cpsd in
        if not (Eval.equal_tree td tc) then begin
          Fmt.epr "fjc: CPS result differs!@.";
          exit 2
        end;
        Fmt.pr "result: %a@." Eval.pp_tree td;
        Fmt.pr "%-14s size %6d  lambdas %5d  %a@." "direct"
          (Syntax.size direct) (Cps.count_lams direct) Eval.pp_stats sd;
        Fmt.pr "%-14s size %6d  lambdas %5d  %a@." "CPS" (Syntax.size cpsd)
          (Cps.count_lams cpsd) Eval.pp_stats sc;
        0
  in
  Cmd.v (Cmd.info "cps" ~doc)
    Term.(const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag)

(* ------------------------------------------------------------------ *)
(* sexp                                                                *)
(* ------------------------------------------------------------------ *)

let sexp_cmd =
  let doc = "Serialise the optimised Core as S-expressions (stdout)." in
  let run file no_prelude mode iters =
    let l = load ~no_prelude file in
    let e = optimized mode iters l in
    print_string (Sexp.write e);
    print_newline ();
    0
  in
  Cmd.v (Cmd.info "sexp" ~doc)
    Term.(const run $ file_arg $ no_prelude_flag $ mode_flag $ iters_flag)

(* ------------------------------------------------------------------ *)
(* cover                                                               *)
(* ------------------------------------------------------------------ *)

let cover_cmd =
  let doc =
    "Optimization coverage of a corpus: compile every file under every \
     pipeline configuration and report which of the optimizer's possible \
     behaviours (Fig. 4 ticks per configuration, ledger outcomes, \
     incident causes) the corpus exercised."
  in
  let run files no_prelude iters inline_threshold dup_threshold json require
      faults =
    arm_faults faults;
    let cover = Coverage.create () in
    List.iter
      (fun file ->
        let l = load ~no_prelude file in
        List.iter
          (fun mode ->
            let cfg =
              pipeline_config ~inline_threshold ~dup_threshold mode iters l
            in
            let _, r = Pipeline.run_report cfg l.core in
            Coverage.observe_report cover r)
          [ Pipeline.Baseline; Pipeline.Join_points; Pipeline.No_cc ])
      files;
    (* With [--json -] the payload owns stdout; keep the table off it. *)
    if json <> Some "-" then begin
      Fmt.pr "fjc: coverage over %d file(s) x 3 configuration(s):@."
        (List.length files);
      Fmt.pr "%a@." Coverage.pp_summary cover;
      let never = Coverage.never_fired cover in
      if never <> [] then begin
        Fmt.pr "never fired (%d):@." (List.length never);
        List.iter
          (fun (d, p) -> Fmt.pr "  %s/%s@." (Coverage.dim_name d) p)
          never
      end
    end;
    let json_rc =
      match json with
      | None -> 0
      | Some dest ->
          write_output ~what:"coverage map" dest
            (Telemetry.Json.to_string (Coverage.to_json cover))
    in
    match require with
    | None -> json_rc
    | Some pct ->
        let c, t = Coverage.axioms_covered cover in
        let got = 100.0 *. float_of_int c /. float_of_int t in
        if got +. 1e-9 >= pct then json_rc
        else begin
          Fmt.epr
            "fjc: coverage gate failed: %.1f%% of axiom ticks fired (%d/%d), \
             required %.1f%%@."
            got c t pct;
          3
        end
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Surface-language source files (the corpus).")
  in
  let json_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the full coverage map (schema $(b,fj-cover/1), \
             round-trippable and mergeable) to $(docv); $(b,-) for stdout \
             (suppresses the table).")
  in
  let require_flag =
    Arg.(
      value
      & opt (some float) None
      & info [ "require" ] ~docv:"PCT"
          ~doc:
            "Exit 3 unless at least $(docv) percent of the simplifier's \
             tick names fired under at least one configuration (the Fig. 4 \
             axiom gate).")
  in
  let exits =
    Cmd.Exit.info 3
      ~doc:"the corpus' axiom coverage is below the $(b,--require) gate."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "cover" ~doc ~exits)
    Term.(
      const run $ files_arg $ no_prelude_flag $ iters_flag
      $ inline_threshold_flag $ dup_threshold_flag $ json_flag $ require_flag
      $ fault_flag)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: generated well-typed programs, every pipeline \
     configuration vs the unoptimised seed (results, Lint, evaluation \
     strategies, the zero-allocation join invariant)."
  in
  let run seed count size fuel out verbose heartbeat flight want_cover
      guided cover_out corpus_out faults =
    arm_faults faults;
    (* A soak must die gracefully: the first SIGINT/SIGTERM finishes the
       case in flight, flushes the flight recorder and any partial
       results, and exits 130/143; a second signal exits immediately. *)
    Fj_service.Shutdown.install ();
    (* Flight recorder: heartbeats go to stderr so they interleave with
       (rather than corrupt) the per-case progress on stdout. *)
    let on_heartbeat hb =
      if heartbeat > 0 then Fmt.epr "fjc: %a@." Fuzz.pp_heartbeat hb
    in
    let recorder =
      if heartbeat = 0 && flight = None then None
      else
        Some
          (Fuzz.recorder
             ~every:(if heartbeat > 0 then heartbeat else max_int)
             ~on_heartbeat ())
    in
    let cover =
      if want_cover || guided || cover_out <> None || corpus_out <> None then
        Some (Coverage.create ())
      else None
    in
    let on_interesting case_seed e =
      match corpus_out with
      | None -> ()
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path =
            Filename.concat dir (Fmt.str "interesting-%d.sexp" case_seed)
          in
          ignore
            (write_output ~what:"interesting program" path (Sexp.write e))
    in
    let on_case case_seed v =
      match v with
      | Fuzz.Pass ->
          if verbose then Fmt.pr "seed %d: pass@." case_seed
      | Fuzz.Skip why ->
          if verbose then Fmt.pr "seed %d: skip (%s)@." case_seed why
      | Fuzz.Fail { mode; kind; _ } ->
          Fmt.pr "seed %d: FAIL %s under %s (minimizing...)@." case_seed kind
            mode
    in
    let s =
      Fuzz.run ~size ~fuel ~on_case ?recorder ?cover ~guided ~on_interesting
        ~should_stop:(fun () -> Fj_service.Shutdown.requested () <> None)
        ~seed ~count ()
    in
    let flight_rc =
      match (flight, recorder) with
      | Some dest, Some r ->
          write_output ~what:"flight recording" dest
            (Telemetry.Json.to_string (Fuzz.flight_json ?cover r))
      | _ -> 0
    in
    Fmt.pr "fuzz: %d case(s): %d passed, %d skipped, %d failed@." s.Fuzz.cases
      s.Fuzz.passed s.Fuzz.skipped
      (List.length s.Fuzz.failures);
    let cover_rc =
      match cover with
      | None -> 0
      | Some c ->
          Fmt.pr "fuzz: coverage %d/%d point(s) (%.1f%%), %d interesting \
                  case(s)@."
            (Coverage.covered c) Coverage.universe_size (Coverage.percent c)
            s.Fuzz.interesting;
          (match cover_out with
          | None -> 0
          | Some dest ->
              write_output ~what:"coverage map" dest
                (Telemetry.Json.to_string (Coverage.to_json c)))
    in
    List.iter (fun f -> Fmt.pr "@.%a@." Fuzz.pp_failure f) s.Fuzz.failures;
    (match out with
    | None -> ()
    | Some dir ->
        (* One JSON file per minimized counterexample, named by seed so
           CI artifacts are self-describing. *)
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (f : Fuzz.failure) ->
            let path =
              Filename.concat dir (Fmt.str "counterexample-%d.json" f.f_seed)
            in
            ignore
              (write_output ~what:"counterexample" path
                 (Telemetry.Json.to_string (Fuzz.failure_json f))))
          s.Fuzz.failures);
    (* Exit-code contract: finding a counterexample is always exit 3,
       whether or not --out / --flight / --cover-out also ran (their
       write failures surface as exit 1 only on otherwise-clean runs).
       An interrupted but counterexample-free soak exits with the
       signal's code (130/143) — after everything above has flushed. *)
    let shutdown_rc =
      match Fj_service.Shutdown.requested () with
      | None -> 0
      | Some r ->
          Fmt.epr "fjc: fuzz: interrupted after %d case(s); partial results \
                   flushed@."
            s.Fuzz.cases;
          Fj_service.Shutdown.exit_code r
    in
    if s.Fuzz.failures <> [] then 3
    else if shutdown_rc <> 0 then shutdown_rc
    else max flight_rc cover_rc
  in
  let seed_flag =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"First case seed; case $(i,i) uses seed $(docv)+$(i,i).")
  in
  let count_flag =
    Arg.(
      value & opt int 100
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of cases to run.")
  in
  let size_flag =
    Arg.(
      value & opt int Gen.default_size
      & info [ "size" ] ~docv:"N" ~doc:"Generator size budget per program.")
  in
  let fuel_flag =
    Arg.(
      value
      & opt int 200_000
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Machine steps allowed per evaluation of the seed program \
             (optimised programs get 8x; exhaustion is a skip, not a \
             failure).")
  in
  let out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write each minimized counterexample as JSON into this \
             directory (created if missing).")
  in
  let verbose_flag =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Report every case, not just failures.")
  in
  let heartbeat_flag =
    Arg.(
      value
      & opt int Fuzz.default_heartbeat_every
      & info [ "heartbeat" ] ~docv:"N"
          ~doc:
            "Print a heartbeat line (cases/sec, incident count, latency \
             histogram snapshot) to stderr every $(docv) cases, plus one \
             at the end of the run; $(b,0) silences them.")
  in
  let flight_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"PATH"
          ~doc:
            "After the run, write the flight recording (bounded ring of \
             recent spans as Perfetto-loadable trace events, all \
             heartbeats, metrics) as JSON to $(docv); $(b,-) for stdout.")
  in
  let cover_flag =
    Arg.(
      value & flag
      & info [ "cover" ]
          ~doc:
            "Keep a cumulative optimization coverage map across the run \
             (see $(b,fjc cover)); reports coverage in heartbeats and the \
             final summary, and counts cases reaching previously-unseen \
             points as interesting.")
  in
  let cover_guided_flag =
    Arg.(
      value & flag
      & info [ "cover-guided" ]
          ~doc:
            "Coverage-guided generation (implies $(b,--cover)): programs \
             that reach new coverage points are retained, and about half \
             of the later cases mutate a retained seed instead of \
             generating fresh.")
  in
  let cover_out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "cover-out" ] ~docv:"PATH"
          ~doc:
            "After the run, write the coverage map (schema $(b,fj-cover/1)) \
             as JSON to $(docv) (implies $(b,--cover)); $(b,-) for stdout.")
  in
  let corpus_out_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-out" ] ~docv:"DIR"
          ~doc:
            "Write every interesting program (one that reached a \
             previously-unseen coverage point) as an s-expression into \
             $(docv) (implies $(b,--cover); created if missing).")
  in
  let exits =
    Cmd.Exit.info 3
      ~doc:
        "a counterexample was found (reported, minimized, and written out \
         when $(b,--out) is given)."
    :: Cmd.Exit.info 130
         ~doc:
           "interrupted by SIGINT: the case in flight finished, the flight \
            recording and partial results were flushed, and no \
            counterexample had been found (a counterexample still exits 3)."
    :: Cmd.Exit.info 143 ~doc:"terminated by SIGTERM; same drain as 130."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~exits)
    Term.(
      const run $ seed_flag $ count_flag $ size_flag $ fuel_flag $ out_flag
      $ verbose_flag $ heartbeat_flag $ flight_flag $ cover_flag
      $ cover_guided_flag $ cover_out_flag $ corpus_out_flag
      $ fault_flag)

(* ------------------------------------------------------------------ *)
(* batch / serve — the fault-tolerant compile service                  *)
(* ------------------------------------------------------------------ *)

module Service = Fj_service.Service
module Shutdown = Fj_service.Shutdown
module Svc_budget = Fj_service.Budget
module Svc_cache = Fj_service.Cache

(* Shared service knobs (batch and serve take the same set). *)

let jobs_flag =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains draining the request queue.")

let queue_flag =
  Arg.(
    value & opt int 256
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission queue capacity. A request beyond it is $(i,shed) — a \
           structured rejection, never an unbounded queue or a hang.")

let deadline_flag =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-attempt wall-clock deadline, enforced by a cooperative \
           watchdog on the optimizer's tick stream. Expiry is a transient \
           failure: retried with backoff, then degraded.")

let pass_fuel_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "pass-fuel" ] ~docv:"N"
        ~doc:
          "Per-pass tick budget (the Guard fuel limit); default: \
           Guard's own.")

let attempts_flag =
  Arg.(
    value & opt int 2
    & info [ "attempts" ] ~docv:"N"
        ~doc:
          "Attempts per degradation rung (full pipeline, then baseline, \
           then parse+typecheck only) before stepping down.")

let backoff_flag =
  Arg.(
    value & opt float 25.0
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:
          "Base of the jittered exponential backoff slept between retries \
           of a transient failure.")

let backoff_max_flag =
  Arg.(
    value & opt float 250.0
    & info [ "backoff-max-ms" ] ~docv:"MS" ~doc:"Backoff ceiling.")

let service_seed_flag =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Determinises the backoff jitter (and nothing else — outputs are \
           byte-identical at any seed).")

let cache_dir_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Request cache directory (created if missing). Each request \
           looks up one entry, keyed on its source bytes, input kind and \
           every behaviour-affecting flag; a hit skips the front end and \
           the whole pipeline. Only a full-rung result with no incidents \
           is stored. Entries are integrity-checked on read: a corrupt \
           entry is quarantined and recomputed, never served.")

let isolate_flag =
  Arg.(
    value & flag
    & info [ "isolate" ]
        ~doc:
          "Fork one child process per attempt so a crashing compilation \
           cannot take the service down (implies $(b,--jobs 1)).")

(* Build a Service.config from the shared knobs. [datacons] in the
   pipeline template is irrelevant — the service overrides it per
   request from each source's own datacon environment. *)
let service_config jobs queue attempts backoff backoff_max seed deadline
    pass_fuel mode iters inline_threshold dup_threshold policy no_prelude
    cache_dir isolate =
  let base = Service.default_config () in
  let budget =
    {
      Svc_budget.wall_ms = deadline;
      fuel =
        (match pass_fuel with
        | Some _ as f -> f
        | None -> base.Service.budget.Svc_budget.fuel);
    }
  in
  let pipeline =
    Pipeline.default_config ~mode ~iterations:iters ~inline_threshold
      ~dup_threshold ~policy ()
  in
  let cache = Option.map (fun dir -> Svc_cache.create ~dir ()) cache_dir in
  {
    Service.jobs;
    queue_capacity = queue;
    attempts_per_rung = attempts;
    backoff_base_ms = backoff;
    backoff_max_ms = backoff_max;
    seed;
    budget;
    pipeline;
    no_prelude;
    cache;
    isolate;
  }

(* Expand FILE|DIR arguments and --manifest lines into (id, path)
   pairs. A directory contributes its *.fj / *.sexp entries in sorted
   order; a path that does not exist is kept — the service rejects it
   as a structured per-request failure rather than aborting the batch.
   Ids are sanitized paths, deduplicated deterministically. *)
let gather_sources inputs manifest =
  let manifest_lines =
    match manifest with
    | None -> Ok []
    | Some f -> (
        match read_file f with
        | exception Sys_error m -> Error m
        | s ->
            Ok
              (String.split_on_char '\n' s |> List.map String.trim
              |> List.filter (fun l -> l <> "" && l.[0] <> '#')))
  in
  match manifest_lines with
  | Error _ as e -> e
  | Ok lines ->
      let expand p =
        match Sys.is_directory p with
        | exception Sys_error _ -> [ p ]
        | false -> [ p ]
        | true ->
            Sys.readdir p |> Array.to_list |> List.sort String.compare
            |> List.filter (fun f ->
                   Filename.check_suffix f ".fj"
                   || Filename.check_suffix f ".sexp")
            |> List.map (Filename.concat p)
      in
      let paths = List.concat_map expand (inputs @ lines) in
      let seen = Hashtbl.create 16 in
      Ok
        (List.map
           (fun p ->
             let base = Service.sanitize_id p in
             let id =
               match Hashtbl.find_opt seen base with
               | None ->
                   Hashtbl.add seen base 1;
                   base
               | Some n ->
                   Hashtbl.replace seen base (n + 1);
                   Fmt.str "%s.%d" base n
             in
             (id, p))
           paths)

let service_exits =
  Cmd.Exit.info 1
    ~doc:
      "some request was rejected (permanent failure), exhausted every \
       retry/degradation rung, or was dropped by a shutdown drain."
  :: Cmd.Exit.info 3
       ~doc:
         "some request was shed at admission because the queue was full \
          (takes precedence over 1)."
  :: Cmd.Exit.info 130
       ~doc:
         "interrupted by SIGINT: in-flight requests finished, the rest \
          were dropped, and partial results were written."
  :: Cmd.Exit.info 143 ~doc:"terminated by SIGTERM; same drain as 130."
  :: Cmd.Exit.defaults

let batch_cmd =
  let doc =
    "Compile a batch of files through the fault-tolerant compile service: \
     parallel workers, per-request deadlines, retry with \
     jittered backoff, graceful degradation, and an integrity-checked \
     cache of whole compile results (one entry per source)."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every admitted request ends in exactly one structured outcome: \
         $(b,compiled) (possibly on a degraded rung), $(b,rejected) (a \
         permanent input failure), $(b,exhausted) (every rung failed every \
         attempt), $(b,shed) (refused at admission), or $(b,dropped) (a \
         shutdown drain). Per-request artifacts ($(i,ID).sexp and \
         $(i,ID).meta.json) carry only deterministic fields — they are \
         byte-identical at any $(b,--jobs) level, cold or warm cache; \
         timings and cache statistics live in results.json.";
    ]
  in
  let inputs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Source files, or directories scanned (sorted) for *.fj and \
             *.sexp.")
  in
  let manifest_flag =
    Arg.(
      value
      & opt (some file) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Read request paths from $(docv), one per line ($(b,#) \
             comments and blank lines ignored), after the positional \
             arguments.")
  in
  let out_flag =
    Arg.(
      value & opt string "_batch"
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Output directory: per-request $(i,ID).sexp and \
             $(i,ID).meta.json plus results.json (schema $(b,fj-batch/1)).")
  in
  let run inputs manifest out jobs queue attempts backoff backoff_max seed
      deadline pass_fuel mode iters inline_threshold dup_threshold policy
      no_prelude cache_dir isolate faults =
    arm_faults faults;
    Shutdown.install ();
    match gather_sources inputs manifest with
    | Error m ->
        Fmt.epr "fjc: batch: %s@." m;
        1
    | Ok [] ->
        Fmt.epr "fjc: batch: no sources (give FILEs, DIRs, or --manifest)@.";
        1
    | Ok sources ->
        let cfg =
          service_config jobs queue attempts backoff backoff_max seed
            deadline pass_fuel mode iters inline_threshold dup_threshold
            policy no_prelude cache_dir isolate
        in
        let b = Service.run_batch cfg sources in
        Service.write_batch cfg ~dir:out b;
        let n name =
          List.length
            (List.filter
               (fun (o : Service.outcome) ->
                 String.equal (Service.status_name o.Service.status) name)
               b.Service.b_outcomes)
        in
        let degraded =
          List.length
            (List.filter
               (fun (o : Service.outcome) ->
                 match o.Service.status with
                 | Service.Compiled a -> a.Service.a_rung <> Service.Full
                 | _ -> false)
               b.Service.b_outcomes)
        in
        Fmt.pr
          "batch: %d request(s) in %.0fms: %d compiled (%d degraded), %d \
           rejected, %d exhausted, %d shed, %d dropped; %d worker \
           respawn(s)@."
          (List.length b.Service.b_outcomes)
          b.Service.b_wall_ms (n "compiled") degraded (n "rejected")
          (n "exhausted") (n "shed") (n "dropped") b.Service.b_respawns;
        (match cfg.Service.cache with
        | None -> ()
        | Some c ->
            let s = Svc_cache.stats c in
            Fmt.pr
              "batch: cache: %d hit(s), %d miss(es), %d store(s), %d \
               quarantined (hit rate %.0f%%)@."
              s.Svc_cache.hits s.Svc_cache.misses s.Svc_cache.stores
              s.Svc_cache.quarantined
              (100.0 *. Svc_cache.hit_rate c));
        (match b.Service.b_shutdown with
        | None -> ()
        | Some _ -> Fmt.epr "fjc: batch: interrupted; partial results in %s@." out);
        Fmt.pr "fjc: wrote %s@." (Filename.concat out "results.json");
        Service.batch_exit_code b
  in
  Cmd.v
    (Cmd.info "batch" ~doc ~man ~exits:service_exits)
    Term.(
      const run $ inputs_arg $ manifest_flag $ out_flag $ jobs_flag
      $ queue_flag $ attempts_flag $ backoff_flag $ backoff_max_flag
      $ service_seed_flag $ deadline_flag $ pass_fuel_flag $ mode_flag
      $ iters_flag $ inline_threshold_flag $ dup_threshold_flag
      $ policy_flag $ no_prelude_flag $ cache_dir_flag $ isolate_flag
      $ fault_flag)

let serve_cmd =
  let doc =
    "Run the compile service on a newline-delimited request stream \
     (stdin/stdout, or a Unix-domain socket with $(b,--socket))."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Each request line is $(i,PATH) or $(i,ID), a tab, and $(i,PATH); \
         each \
         response line is one JSON object with at least $(b,id) and \
         $(b,status) ($(b,compiled) responses add $(b,rung), \
         $(b,output_size) and the output s-expression; failures add \
         $(b,error) and $(b,detail)). Responses may interleave across \
         requests at $(b,--jobs) > 1 — correlate on $(b,id). The server \
         returns on end of input or on SIGINT/SIGTERM, draining in-flight \
         requests either way.";
    ]
  in
  let socket_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (one client at a \
             time) instead of stdin/stdout.")
  in
  let run socket jobs queue attempts backoff backoff_max seed deadline
      pass_fuel mode iters inline_threshold dup_threshold policy no_prelude
      cache_dir isolate faults =
    arm_faults faults;
    Shutdown.install ();
    let cfg =
      service_config jobs queue attempts backoff backoff_max seed deadline
        pass_fuel mode iters inline_threshold dup_threshold policy
        no_prelude cache_dir isolate
    in
    let reason =
      match socket with
      | None -> Service.serve cfg ~input:stdin ~output:stdout
      | Some path -> Service.serve_socket cfg ~path
    in
    match reason with None -> 0 | Some r -> Shutdown.exit_code r
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man ~exits:service_exits)
    Term.(
      const run $ socket_flag $ jobs_flag $ queue_flag $ attempts_flag
      $ backoff_flag $ backoff_max_flag $ service_seed_flag $ deadline_flag
      $ pass_fuel_flag $ mode_flag $ iters_flag $ inline_threshold_flag
      $ dup_threshold_flag $ policy_flag $ no_prelude_flag $ cache_dir_flag
      $ isolate_flag $ fault_flag)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)
(* ------------------------------------------------------------------ *)

let bench_diff_cmd =
  let doc =
    "Compare two $(b,fj-bench/1) trajectory files (e.g. a committed \
     BENCH_*.json baseline against a fresh run)."
  in
  let run old_file new_file gate gate_timing md json_out =
    match (read_file old_file, read_file new_file) with
    | exception Sys_error m ->
        Fmt.epr "fjc: %s@." m;
        1
    | sold, snew -> (
        match
          Bench_diff.of_strings ?gate_pct:gate ~gate_timing
            ~old_label:old_file ~new_label:new_file sold snew
        with
        | Error m ->
            Fmt.epr "fjc: %s@." m;
            1
        | Ok d ->
            (* Same stdout discipline as [fjc cover --json -]: a
               machine-readable payload on stdout suppresses the
               console table. *)
            let to_stdout = md = Some "-" || json_out = Some "-" in
            if not to_stdout then Fmt.pr "%a@." Bench_diff.pp d;
            let rc_md =
              match md with
              | None -> 0
              | Some dest ->
                  write_output ~what:"bench diff (markdown)" dest
                    (Bench_diff.to_markdown d)
            in
            let rc_json =
              match json_out with
              | None -> 0
              | Some dest ->
                  write_output ~what:"bench diff (json)" dest
                    (Telemetry.Json.to_string (Bench_diff.to_json d))
            in
            (* The gate verdict wins over output-write failures, like
               the fuzz exit-code contract. *)
            match Bench_diff.regressions d with
            | [] -> max rc_md rc_json
            | rs ->
                Fmt.epr "fjc: bench diff gate failed: %d regression(s)@."
                  (List.length rs);
                3)
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline $(b,fj-bench/1) file.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate $(b,fj-bench/1) file.")
  in
  let gate_flag =
    Arg.(
      value
      & opt (some float) None
      & info [ "gate" ] ~docv:"PCT"
          ~doc:
            "Exit 3 on any regression beyond $(docv): counts (words, \
             steps, jumps) worsening by more than $(docv) percent, or the \
             Table-1 delta_pct worsening by more than $(docv) points. \
             Without this flag the diff only reports.")
  in
  let timing_gate_flag =
    Arg.(
      value & flag
      & info [ "timing-gate" ]
          ~doc:
            "Let $(b,--gate) also trip on eval timing medians worsening \
             beyond the recorded sample noise plus the gate percentage. \
             Off by default: wall-clock medians only compare between \
             runs on the same machine, so CI gates counts and delta_pct \
             only.")
  in
  let md_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "md" ] ~docv:"PATH"
          ~doc:
            "Write the diff as a markdown table (the CI artifact) to \
             $(docv); $(b,-) for stdout.")
  in
  let json_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the diff (schema $(b,fj-bench-diff/1)) to $(docv); \
             $(b,-) for stdout.")
  in
  let exits =
    Cmd.Exit.info 3
      ~doc:"the $(b,--gate) found at least one gated regression."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "diff" ~doc ~exits)
    Term.(
      const run $ old_arg $ new_arg $ gate_flag $ timing_gate_flag $ md_flag
      $ json_flag)

let bench_cmd =
  let doc = "Benchmark trajectory analytics." in
  Cmd.group (Cmd.info "bench" ~doc) [ bench_diff_cmd ]

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let doc = "a compiler for System F_J — join points and jumps (PLDI'17)" in
  let info = Cmd.info "fjc" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ run_cmd; dump_cmd; trace_cmd; stats_cmd; profile_cmd; explain_cmd;
            erase_cmd; lower_cmd; cps_cmd; sexp_cmd; cover_cmd; fuzz_cmd;
            batch_cmd; serve_cmd; bench_cmd ]))
