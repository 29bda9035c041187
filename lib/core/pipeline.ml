(** The Core-to-Core pass pipeline.

    Three compiler configurations, matching the experimental contrast
    of Sec. 7 plus one ablation:

    - {b Join_points} — the paper's compiler: Float In, contification
      (run "whenever the occurrence analyzer runs"), and the Simplifier
      with [jfloat]/[abort], iterated; Float Out at the end.
    - {b Baseline} — pre-join-point GHC, the paper's baseline: same
      pipeline but contification off and shared case alternatives bound
      as ordinary lets. (The {e back end} — see {!Fj_machine.Lower} —
      still recognises non-escaping tail-called bindings, as the
      paper's baseline does.)
    - {b No_cc} — commuting conversions disabled entirely; quantifies
      the Sec. 2 claim that they are "tremendously important in
      practice".

    [run] optionally Lints between every pass, which is how the test
    suite "forensically identifies" any pass that destroys typing. *)

open Syntax

type mode = Baseline | Join_points | No_cc

let mode_name = function
  | Baseline -> "baseline"
  | Join_points -> "join-points"
  | No_cc -> "no-commuting-conversions"

(** What the pass cache stores for one (pass, input tree) pair: the
    output tree plus everything else the pass would have produced —
    tick firings, ledger entries, and the unique-supply position it
    left behind — so a hit replays the pass exactly and warm compiles
    stay byte-identical to cold ones. *)
type cached_pass = {
  cp_output : Syntax.expr;
  cp_ident_after : int;
  cp_ticks : (string * int) list;
  cp_decisions : Decision.event list;
}

(** The memoization hook the compile service installs. The
    implementation owns the keying (pass label + round-trippable Sexp
    of the input + supply position + configuration fingerprint) and
    the integrity story; the pipeline just offers lookups and
    results. *)
type pass_cache = {
  cache_lookup :
    pass:string -> supply:int -> input:Syntax.expr -> cached_pass option;
  cache_store :
    pass:string -> supply:int -> input:Syntax.expr -> cached_pass -> unit;
}

type config = {
  mode : mode;
  iterations : int;  (** Rounds of (float-in; contify; simplify). *)
  inline_threshold : int;
  dup_threshold : int;
  strictness : bool;
      (** Run the demand analysis ({!Demand}) each round. Applies under
          every mode — the paper's baseline GHC has strictness analysis
          too; only the join-point-specific parts differ. *)
  cse : bool;  (** Run common sub-expression elimination each round. *)
  rules : Rules.rule list;
      (** User rewrite RULES (Sec. 8), applied once per round before
          the simplifier — like GHC, rules fire interleaved with
          inlining so that library-author equations (e.g.
          stream/unstream) meet their redexes. *)
  spec_constr : bool;
      (** Run call-pattern specialisation ({!Spec_constr}) each round
          (only effective on recursive join points, i.e. under
          [Join_points]). *)
  datacons : Datacon.env;
  lint_every_pass : bool;
      (** Under [Strict] only: typecheck between passes; raise
          {!Pass_broke_lint} on failure. Under [Recover] the lint gate
          is always on (it is what triggers rollback). *)
  policy : Guard.policy;
      (** [Strict] (the default): any pass failure aborts compilation,
          today's behaviour. [Recover]: a pass that raises, breaks
          Lint, exhausts its fuel budget or explodes the term size is
          rolled back to the pre-pass tree and recorded as a
          {!Guard.incident} — every optimisation pass is optional. *)
  limits : Guard.limits;  (** Per-pass budgets enforced under [Recover]. *)
  cache : pass_cache option;
      (** Pass memoization hook; [None] (the default) recomputes every
          pass. *)
}

let default_config ?(mode = Join_points) ?(iterations = 3)
    ?(inline_threshold = 60) ?(dup_threshold = 12) ?(strictness = true)
    ?(cse = true) ?(spec_constr = true) ?(rules = [])
    ?(datacons = Datacon.builtins) ?(lint_every_pass = false)
    ?(policy = Guard.Strict) ?(limits = Guard.default_limits) ?cache () =
  { mode; iterations; inline_threshold; dup_threshold; strictness; cse;
    rules; spec_constr; datacons; lint_every_pass; policy; limits; cache }

exception Pass_broke_lint of string * Lint.error

(** One pass execution in the trace: what ran, how long it took, what
    it did to the term, and which ticks it fired. *)
type pass_record = {
  pass : string;  (** e.g. ["simplify (0)"]. *)
  duration_ms : float;
  lint_ms : float;  (** 0 unless [lint_every_pass]. *)
  size_before : int;
  size_after : int;
  joins_after : int;  (** Join-point definitions after the pass. *)
  shape_after : Syntax.measure;
      (** Tree shape of the pass's output: nodes, depth, estimated
          heap words. *)
  gc : Gcstats.t;
      (** What the {e compiler} allocated running this pass (GC delta
          over the pass span, lint included). *)
  ticks : (string * int) list;  (** Ticks fired {e by this pass}. *)
  decisions : Decision.event list;
      (** Ledger entries recorded {e by this pass}. *)
  incident : Guard.incident option;
      (** Under [Recover]: the rollback this pass suffered, if any.
          When set, [size_after] equals [size_before] (the pre-pass
          tree was restored), while [ticks]/[decisions] still describe
          what the failed pass did before being rolled back. *)
  cached : bool;  (** Replayed from the pass cache rather than run. *)
}

type report = {
  mode : string;
  policy : string;  (** {!Guard.policy_name} of the run's policy. *)
  input_size : int;
  mutable output_size : int;
  mutable total_ms : float;
  mutable total_gc : Gcstats.t;
      (** GC delta over the whole compile span: everything the run
          allocated, passes and glue alike. *)
  mutable passes_rev : pass_record list;  (** Built newest-first. *)
  counters : Telemetry.counters;  (** Whole-run tick totals. *)
  ledger : Decision.t;  (** Whole-run decision ledger. *)
  span_collector : Span.collector;  (** Hierarchical wall-clock spans. *)
  metrics : Metrics.t;  (** Counters/gauges/histograms of the run. *)
}

let fresh_report (c : config) ~input_size =
  {
    mode = mode_name c.mode;
    policy = Guard.policy_name c.policy;
    input_size;
    output_size = input_size;
    total_ms = 0.0;
    total_gc = Gcstats.zero;
    passes_rev = [];
    counters = Telemetry.create ();
    ledger = Decision.create ();
    span_collector = Span.create ();
    metrics = Metrics.create ();
  }

let passes r = List.rev r.passes_rev
let report_mode r = r.mode
let total_gc r = r.total_gc
let folded ?weight r = Span.folded ?weight r.span_collector
let folded_stacks ?weight r = Span.folded_stacks ?weight r.span_collector
let spans r = Span.spans r.span_collector
let metrics r = r.metrics
let trail r = List.map (fun p -> (p.pass, p.size_after)) (passes r)
let ticks r = Telemetry.nonzero r.counters
let total_ticks r = Telemetry.total r.counters
let contified r = Telemetry.get r.counters Telemetry.Contified
let decisions r = Decision.events r.ledger
let decision_summary r = Decision.summary (decisions r)

(** Rollbacks suffered during the run, in execution order (empty under
    [Strict], which aborts instead). *)
let incidents r = List.filter_map (fun p -> p.incident) (passes r)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-28s %8.3f ms   size %5d -> %5d   joins %3d   alloc %9.0fw@,"
        p.pass p.duration_ms p.size_before p.size_after p.joins_after
        (Gcstats.alloc_words p.gc))
    (passes r);
  Fmt.pf ppf "%-28s %8.3f ms   size %5d -> %5d   %17s alloc %9.0fw@," "TOTAL"
    r.total_ms r.input_size r.output_size ""
    (Gcstats.alloc_words r.total_gc);
  Fmt.pf ppf "GC: %a@," Gcstats.pp r.total_gc;
  (let is = incidents r in
   if is <> [] then begin
     Fmt.pf ppf "Incidents (%d):@," (List.length is);
     List.iter (fun i -> Fmt.pf ppf "  %a@," Guard.pp_incident i) is
   end);
  Telemetry.pp_table ppf r.counters;
  (let ds = decisions r in
   if ds <> [] then
     Fmt.pf ppf "@,Decisions: %d fired, %d rejected" (Decision.fired ds)
       (Decision.rejected ds));
  (if Metrics.histograms r.metrics <> [] || Metrics.counters r.metrics <> []
   then begin
     Fmt.pf ppf "@,Metrics:@,";
     Metrics.pp ppf r.metrics
   end);
  Fmt.pf ppf "@]"

let ticks_json l =
  Telemetry.Json.Obj (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) l)

let pass_record_json (p : pass_record) =
  Telemetry.Json.(
    Obj
      ([
         ("name", Str p.pass);
         ("duration_ms", Float p.duration_ms);
         ("lint_ms", Float p.lint_ms);
         ("size_before", Int p.size_before);
         ("size_after", Int p.size_after);
         ("joins_after", Int p.joins_after);
         ( "shape_after",
           Obj
             [
               ("nodes", Int p.shape_after.Syntax.m_nodes);
               ("depth", Int p.shape_after.Syntax.m_depth);
               ("heap_words", Int p.shape_after.Syntax.m_heap_words);
             ] );
         ("gc", Gcstats.to_json p.gc);
         ("ticks", ticks_json p.ticks);
         ("decisions", Decision.summary_json p.decisions);
       ]
      @ (if p.cached then [ ("cached", Bool true) ] else [])
      @
      match p.incident with
      | None -> []
      | Some i -> [ ("incident", Guard.incident_json i) ]))

let report_json (r : report) =
  Telemetry.Json.(
    Obj
      [
        ("mode", Str r.mode);
        ("policy", Str r.policy);
        ("input_size", Int r.input_size);
        ("output_size", Int r.output_size);
        ("total_ms", Float r.total_ms);
        ("total_gc", Gcstats.to_json r.total_gc);
        ("total_ticks", Int (total_ticks r));
        ("contified", Int (contified r));
        ("ticks", ticks_json (ticks r));
        ("decisions", Decision.summary_json (decisions r));
        ("incidents", Arr (List.map Guard.incident_json (incidents r)));
        ("passes", Arr (List.map pass_record_json (passes r)));
        ("metrics", Metrics.to_json r.metrics);
        ("spans", Arr (List.map Span.span_json (spans r)));
      ])

let report_to_json r = Telemetry.Json.to_string (report_json r)

(** A compact optimizer summary — wall-clock, tick totals, headline
    join-point counters — for benchmark trajectory files
    ([BENCH_*.json]), where the full per-pass trace would drown the
    per-program rows. *)
let summary_json (r : report) =
  Telemetry.Json.(
    Obj
      [
        ("total_ms", Float r.total_ms);
        ("total_gc", Gcstats.to_json r.total_gc);
        ("total_ticks", Int (total_ticks r));
        ("contified", Int (contified r));
        ("ticks", ticks_json (ticks r));
        ("decisions", Decision.summary_json (decisions r));
        ("metrics", Metrics.to_json r.metrics);
      ])

(** The Chrome trace-event / Perfetto envelope over one or more runs:
    one track (tid) per report, named by its configuration, so the
    Baseline / Join_points / No_cc compile timelines sit side by side;
    the per-run metrics registries (histogram summaries included) ride
    under [otherData]. Load the result in https://ui.perfetto.dev or
    chrome://tracing. *)
let perfetto_json ?file (rs : report list) =
  let open Telemetry.Json in
  let process_name =
    Obj
      [
        ("ph", Str "M");
        ("ts", Int 0);
        ("name", Str "process_name");
        ("pid", Int 1);
        ("tid", Int 0);
        ("args", Obj [ ("name", Str "fjc") ]);
      ]
  in
  let events =
    List.concat
      (List.mapi
         (fun i r ->
           (* One GC counter sample per pass boundary (counter tracks
              are per-process in the trace format, so the track name
              carries the configuration): the per-pass allocation
              profile plots right under the pass timeline. *)
           let gc_counters =
             List.filter_map
               (fun (sp : Span.span) ->
                 if sp.Span.sp_cat <> "pass" then None
                 else
                   Some
                     (Span.counter_event ~pid:1 ~tid:(i + 1)
                        ~name:(Fmt.str "gc_words/%s" r.mode)
                        ~ts:(Span.us (sp.Span.sp_start_ms +. sp.Span.sp_dur_ms))
                        Telemetry.Json.
                          [
                            ( "minor",
                              Int
                                (int_of_float
                                   (Float.round sp.Span.sp_gc.Gcstats.minor_words))
                            );
                            ( "major",
                              Int
                                (int_of_float
                                   (Float.round sp.Span.sp_gc.Gcstats.major_words))
                            );
                            ( "promoted",
                              Int
                                (int_of_float
                                   (Float.round
                                      sp.Span.sp_gc.Gcstats.promoted_words)) );
                          ]))
               (Span.spans r.span_collector)
           in
           (Span.thread_name_event ~pid:1 ~tid:(i + 1) r.mode
           :: Span.trace_events ~pid:1 ~tid:(i + 1) r.span_collector)
           @ gc_counters)
         rs)
  in
  Obj
    [
      ("traceEvents", Arr (process_name :: events));
      ("displayTimeUnit", Str "ms");
      ( "otherData",
        Obj
          ((match file with None -> [] | Some f -> [ ("file", Str f) ])
          @ [
              ("captured_epoch_ms", Float (Telemetry.epoch_ms ()));
              ("configurations", Arr (List.map (fun r -> Str r.mode) rs));
              ( "metrics",
                Obj (List.map (fun r -> (r.mode, Metrics.to_json r.metrics)) rs)
              );
            ]) );
    ]

let simplify_config (c : config) : Simplify.config =
  {
    Simplify.join_points = (c.mode = Join_points);
    case_of_case = c.mode <> No_cc;
    inline_threshold = c.inline_threshold;
    dup_threshold = c.dup_threshold;
    datacons = c.datacons;
  }

(** Run the configured pipeline. Returns the optimised term and the
    structured trace of the passes run. *)
let run_report (c : config) (e : expr) : expr * report =
  (* The one walk over each pass boundary's tree: a pass's output
     measure is the next pass's "before", keyed by physical identity. *)
  let measured = ref (e, measure e) in
  let measure_of e =
    match !measured with
    | e0, m when e0 == e -> m
    | _ ->
        let m = measure e in
        measured := (e, m);
        m
  in
  let report = fresh_report c ~input_size:(measure_of e).m_size in
  let t_run0 = Telemetry.now_ms () in
  (* The label of the last pass whose output survived: under [Recover]
     it is the provenance a rollback restores to. *)
  let last_good = ref "input" in
  (* Time + size + tick-delta accounting around one pass. The optional
     Lint check is timed separately so the trace distinguishes forensic
     overhead from optimisation work. Under [Recover] the pass runs
     inside {!Guard.protect}: on failure the pre-pass tree is kept and
     the incident lands in the pass record. *)
  let step pass f e =
    let size_before = (measure_of e).m_size in
    let snap = Telemetry.snapshot report.counters in
    let dsnap = Decision.snapshot report.ledger in
    (* Pass cache: consult before running. A hit replays the pass
       verbatim — output tree, tick firings, ledger entries, and the
       unique-supply position — inside a span of the usual shape, so
       warm compiles differ from cold ones only in wall-clock. The
       identity "input" pass is never cached. The supply position is
       read before anything runs: it is part of the key. *)
    let supply = Ident.counter_value () in
    let hit =
      match c.cache with
      | Some pc when pass <> "input" -> pc.cache_lookup ~pass ~supply ~input:e
      | _ -> None
    in
    match hit with
    | Some cp ->
        let after = measure_of cp.cp_output in
        let (), duration_ms, gc =
          Span.with_span_stats ~cat:"pass" pass (fun () ->
              List.iter
                (fun (name, n) ->
                  match Telemetry.tick_of_name name with
                  | Some t -> Telemetry.tick ~n t
                  | None -> ())
                cp.cp_ticks;
              List.iter Decision.record_event cp.cp_decisions;
              Ident.restore_counter cp.cp_ident_after;
              Span.annotate "cached" (Telemetry.Json.Bool true);
              Span.annotate "size_before" (Telemetry.Json.Int size_before);
              Span.annotate "size_after" (Telemetry.Json.Int after.m_size))
        in
        last_good := pass;
        Metrics.incr "pipeline.passes";
        Metrics.incr "cache.pass_hits";
        report.passes_rev <-
          {
            pass;
            duration_ms;
            lint_ms = 0.0;
            size_before;
            size_after = after.m_size;
            joins_after = after.m_joins;
            shape_after = after;
            gc;
            ticks = Telemetry.delta_since snap report.counters;
            decisions = Decision.events_since dsnap report.ledger;
            incident = None;
            cached = true;
          }
          :: report.passes_rev;
        cp.cp_output
    | None ->
    (* The pass runs inside a span whose measured duration {e is} the
       record's [duration_ms] — the exported Perfetto event and the
       trace-JSON field come from the same two clock reads, so they
       can never drift apart. *)
    let (e', after, lint_ms, incident), duration_ms, gc =
      Span.with_span_stats ~cat:"pass" pass (fun () ->
          let result =
            match c.policy with
            | Guard.Strict ->
                let e' = f e in
                let lint_ms =
                  if not c.lint_every_pass then 0.0
                  else
                    snd
                      (Span.with_span_timed ~cat:"guard" "lint" (fun () ->
                           match Lint.lint_result c.datacons e' with
                           | Ok _ -> ()
                           | Error err -> raise (Pass_broke_lint (pass, err))))
                in
                (e', measure_of e', lint_ms, None)
            | Guard.Recover -> (
                match
                  Guard.protect ~limits:c.limits ~datacons:c.datacons ~pass
                    ~restored:!last_good ~size_before f e
                with
                | Ok (e', after, lint_ms) -> (e', after, lint_ms, None)
                | Error incident -> (e, measure_of e, 0.0, Some incident))
          in
          let _, after, _, incident = result in
          Span.annotate "size_before" (Telemetry.Json.Int size_before);
          Span.annotate "size_after" (Telemetry.Json.Int after.m_size);
          (match incident with
          | None -> ()
          | Some i ->
              Span.annotate "incident"
                (Telemetry.Json.Str (Guard.cause_name i.Guard.i_cause)));
          result)
    in
    measured := (e', after);
    if incident = None then last_good := pass;
    (* The histogram family strips the round index: every "simplify
       (i)" lands in one "pass.simplify.ms" distribution. *)
    let family =
      match String.index_opt pass ' ' with
      | Some i -> String.sub pass 0 i
      | None -> pass
    in
    Metrics.incr "pipeline.passes";
    Metrics.observe "pass.duration_ms" duration_ms;
    Metrics.observe (Fmt.str "pass.%s.ms" family) duration_ms;
    Metrics.observe "pass.alloc_words" (Gcstats.alloc_words gc);
    let ticks_delta = Telemetry.delta_since snap report.counters in
    let decisions_delta = Decision.events_since dsnap report.ledger in
    (* Offer successful, un-rolled-back pass results to the cache.
       Rolled-back passes are excluded: their stored "result" would be
       the input tree but their ticks describe the failed attempt. *)
    (match c.cache with
    | Some pc when pass <> "input" && incident = None ->
        pc.cache_store ~pass ~supply ~input:e
          {
            cp_output = e';
            cp_ident_after = Ident.counter_value ();
            cp_ticks = ticks_delta;
            cp_decisions = decisions_delta;
          }
    | _ -> ());
    report.passes_rev <-
      {
        pass;
        duration_ms;
        lint_ms;
        size_before;
        size_after = after.m_size;
        joins_after = after.m_joins;
        shape_after = after;
        gc;
        ticks = ticks_delta;
        decisions = decisions_delta;
        incident;
        cached = false;
      }
      :: report.passes_rev;
    e'
  in
  let body () =
    let scfg = simplify_config c in
    let e = step "input" Fun.id e in
    let rec rounds i e =
      if i >= c.iterations then e
      else
        let e = step (Fmt.str "float-in (%d)" i) Float_in.run e in
        let e =
          if c.mode = Join_points then
            step (Fmt.str "contify (%d)" i)
              (fun e -> fst (Contify.contify e))
              e
          else e
        in
        let e =
          if c.rules = [] then e
          else begin
            let fired = ref [] in
            let e' =
              step (Fmt.str "rules (%d)" i)
                (fun e ->
                  let e', names = Rules.rewrite c.rules e in
                  fired := names;
                  if names <> [] then
                    Telemetry.tick ~n:(List.length names) Telemetry.Rule_fired;
                  e')
                e
            in
            (* Keep the trace quiet when no rule fired; name the firing
               rules when some did (the trail tests grep for these). *)
            (match report.passes_rev with
            | h :: t when !fired <> [] ->
                report.passes_rev <-
                  { h with
                    pass =
                      Fmt.str "rules (%d): %s" i (String.concat "," !fired)
                  }
                  :: t
            | { incident = Some _; _ } :: _ ->
                (* A rolled-back rules pass fired nothing, but the
                   incident must stay in the trace. *)
                ()
            | _ :: t -> report.passes_rev <- t
            | [] -> ());
            e'
          end
        in
        let e =
          if c.spec_constr && c.mode = Join_points then
            step (Fmt.str "spec-constr (%d)" i) Spec_constr.run e
          else e
        in
        let e =
          if c.strictness then
            step (Fmt.str "demand (%d)" i) Demand.strictify e
          else e
        in
        let e =
          step (Fmt.str "simplify (%d)" i)
            (Simplify.simplify ~max_iters:6 scfg) e
        in
        let e = if c.cse then step (Fmt.str "cse (%d)" i) Cse.run e else e in
        rounds (i + 1) e
    in
    let e = rounds 0 e in
    let e = step "float-out" Float_out.run e in
    let e = step "simplify (final)" (Simplify.simplify ~max_iters:4 scfg) e in
    e
  in
  let e =
    Span.with_collector report.span_collector @@ fun () ->
    Metrics.with_registry report.metrics @@ fun () ->
    let e, _, total_gc =
      Span.with_span_stats ~cat:"pipeline" "compile" (fun () ->
          Span.annotate "mode" (Telemetry.Json.Str report.mode);
          Span.annotate "input_size" (Telemetry.Json.Int report.input_size);
          let e =
            Telemetry.with_counters report.counters (fun () ->
                Decision.with_ledger report.ledger body)
          in
          Span.annotate "output_size" (Telemetry.Json.Int (measure_of e).m_size);
          Span.annotate "total_ticks"
            (Telemetry.Json.Int (Telemetry.total report.counters));
          e)
    in
    report.total_gc <- total_gc;
    report.output_size <- (measure_of e).m_size;
    report.total_ms <- Telemetry.now_ms () -. t_run0;
    Metrics.incr "pipeline.runs";
    Metrics.set_gauge "pipeline.output_size" (float_of_int report.output_size);
    Metrics.observe "pipeline.total_ms" report.total_ms;
    e
  in
  (e, report)

let run c e = fst (run_report c e)

(** Convenience: optimise under every mode and return the association
    list (used by the benchmark harness). *)
let run_all_modes ?(iterations = 3) ?(datacons = Datacon.builtins) e =
  List.map
    (fun mode ->
      (mode, run (default_config ~mode ~iterations ~datacons ()) e))
    [ Baseline; Join_points; No_cc ]
