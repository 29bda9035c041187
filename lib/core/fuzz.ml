(** The differential fuzzing harness — see the interface for the
    oracle. *)

open Syntax

let dc = Datacon.builtins
let default_fuel = 200_000

type verdict =
  | Pass
  | Skip of string
  | Fail of { mode : string; kind : string; detail : string }

let fail mode kind detail = Fail { mode; kind; detail }

(* The three pipeline configurations under test. Baseline and No_cc
   model compilers without first-class join points, so (as in the
   property suite) they compile the erased program. Each compiles
   under [Recover], the harness that ships: {!Guard} Lints, meters and
   size-checks every pass, and any incident is a failure here — a pass
   bug must surface, not be healed by the recovery it exercises. *)
let configurations =
  [ Pipeline.Baseline; Pipeline.Join_points; Pipeline.No_cc ]

let optimize ?cover mode (e : expr) : (expr, string) result =
  let e =
    if mode = Pipeline.Join_points then e else Erase.erase e
  in
  let cfg =
    Pipeline.default_config ~mode ~datacons:dc ~policy:Guard.Recover ()
  in
  match Pipeline.run_report cfg e with
  | exception exn -> Error (Printexc.to_string exn)
  | e', r -> (
      match Pipeline.incidents r with
      | i :: _ -> Error (Fmt.str "%a" Guard.pp_incident i)
      | [] ->
          (* Coverage is of the compile, whatever the later oracle
             stages conclude: ticks under this mode and ledger
             outcomes. *)
          (match cover with
          | Some c -> Coverage.observe_report c r
          | None -> ());
          Ok e')

let check_program ?(fuel = default_fuel) ?cover (e : expr) : verdict =
  if not (Lint.well_typed dc e) then
    fail "seed" "generator-ill-typed" "generated program does not lint"
  else
    let seed_prof = Profile.create ~trace_cap:0 () in
    match
      Span.with_span ~cat:"fuzz" "seed-eval" (fun () ->
          Eval.run_outcome ~fuel ~profile:seed_prof e)
    with
    | Eval.Fuel_exhausted -> Skip "seed program exhausts the fuel budget"
    | Eval.Crashed m -> fail "seed" "seed-stuck" m
    | Eval.Finished (t0, _) -> (
        (* Sites (of any kind) that already allocate in the unoptimised
           run. A join body is free to allocate — its result value is
           the program's allocation, not the machinery's — and contify
           legitimately moves a lambda's allocation under a join label.
           The invariant the oracle enforces is that optimisation does
           not *introduce* allocation at a join site whose label was
           allocation-free before. *)
        let seed_allocating =
          List.filter_map
            (fun (s : Profile.site) ->
              if s.s_words > 0 then Some s.site_label else None)
            (Profile.sites seed_prof)
        in
        (* Strategy agreement: call-by-name must reach the same answer
           (more steps, so give it a larger budget; a timeout is only a
           skip). *)
        match
          Span.with_span ~cat:"fuzz" "by-name-eval" (fun () ->
              Eval.run_outcome ~mode:Eval.By_name ~fuel:(8 * fuel) e)
        with
        | Eval.Crashed m -> fail "seed" "strategy-disagree" ("by-name stuck: " ^ m)
        | Eval.Finished (t1, _) when not (Eval.equal_tree t0 t1) ->
            fail "seed" "strategy-disagree"
              (Option.value ~default:"trees differ" (Eval.tree_mismatch t0 t1))
        | Eval.Fuel_exhausted | Eval.Finished _ -> (
            let rec modes = function
              | [] -> Pass
              | mode :: rest -> (
                  let mname = Pipeline.mode_name mode in
                  match
                    Span.with_span ~cat:"fuzz" ("compile " ^ mname) (fun () ->
                        optimize ?cover mode e)
                  with
                  | Error detail -> fail mname "pass-aborted" detail
                  | Ok e' -> (
                      if not (Lint.well_typed dc e') then
                        fail mname "output-ill-typed"
                          "optimised program does not lint"
                      else
                        let prof = Profile.create ~trace_cap:0 () in
                        match
                          Span.with_span ~cat:"fuzz" ("run " ^ mname)
                            (fun () ->
                              Eval.run_outcome ~fuel:(8 * fuel) ~profile:prof
                                e')
                        with
                        | Eval.Fuel_exhausted ->
                            Skip
                              (Fmt.str
                                 "optimised (%s) program exhausts the fuel \
                                  budget"
                                 mname)
                        | Eval.Crashed m -> fail mname "output-stuck" m
                        | Eval.Finished (t, _) -> (
                            match Eval.tree_mismatch t0 t with
                            | Some where ->
                                fail mname "result-mismatch" where
                            | None -> (
                                match
                                  List.find_opt
                                    (fun (s : Profile.site) ->
                                      s.s_words > 0
                                      && not
                                           (List.mem s.site_label
                                              seed_allocating))
                                    (Profile.join_sites prof)
                                with
                                | Some s ->
                                    fail mname "join-site-allocated"
                                      (Fmt.str "join site %s allocated %d words"
                                         s.site_label s.s_words)
                                | None -> modes rest))))
            in
            modes configurations))

(* ------------------------------------------------------------------ *)
(* Counterexamples                                                     *)
(* ------------------------------------------------------------------ *)

type failure = {
  f_seed : int;
  f_mode : string;
  f_kind : string;
  f_detail : string;
  f_size_orig : int;
  f_program : expr;
}

let pp_failure ppf f =
  Fmt.pf ppf
    "@[<v>seed %d: %s under %s (%s)@,size %d -> %d (minimized)@,%s@]" f.f_seed
    f.f_kind f.f_mode f.f_detail f.f_size_orig (size f.f_program)
    (Sexp.write f.f_program)

let failure_json (f : failure) =
  Telemetry.Json.(
    Obj
      [
        ("seed", Int f.f_seed);
        ("mode", Str f.f_mode);
        ("kind", Str f.f_kind);
        ("detail", Str f.f_detail);
        ("size_orig", Int f.f_size_orig);
        ("size_min", Int (size f.f_program));
        ("program", Str (Sexp.write f.f_program));
      ])

type summary = {
  cases : int;
  passed : int;
  skipped : int;
  interesting : int;
  failures : failure list;
}

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

type heartbeat = {
  hb_cases : int;
  hb_total : int;
  hb_elapsed_ms : float;
  hb_rate : float;
  hb_passed : int;
  hb_skipped : int;
  hb_incidents : int;
  hb_epoch_ms : float;
  hb_coverage : (int * int) option;
  hb_histograms : (string * Metrics.summary) list;
}

let pp_heartbeat ppf (h : heartbeat) =
  Fmt.pf ppf "heartbeat cases=%d/%d elapsed=%.1fs rate=%.1f/s pass=%d skip=%d \
              incidents=%d"
    h.hb_cases h.hb_total (h.hb_elapsed_ms /. 1000.0) h.hb_rate h.hb_passed
    h.hb_skipped h.hb_incidents;
  (match h.hb_coverage with
  | Some (c, total) ->
      Fmt.pf ppf " cover=%d/%d (%.1f%%)" c total
        (if total = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int total)
  | None -> ());
  List.iter
    (fun (name, (s : Metrics.summary)) ->
      if name = "fuzz.case_ms" || name = "eval.ms" then
        Fmt.pf ppf " | %s p50=%.1f p95=%.1f max=%.1f" name s.Metrics.h_p50
          s.Metrics.h_p95 s.Metrics.h_max)
    h.hb_histograms

let heartbeat_json (h : heartbeat) =
  Telemetry.Json.(
    Obj
      ([
         ("cases", Int h.hb_cases);
         ("total", Int h.hb_total);
         ("elapsed_ms", Float h.hb_elapsed_ms);
         ("cases_per_sec", Float h.hb_rate);
         ("passed", Int h.hb_passed);
         ("skipped", Int h.hb_skipped);
         ("incidents", Int h.hb_incidents);
         ("epoch_ms", Float h.hb_epoch_ms);
       ]
      @ (match h.hb_coverage with
        | Some (c, total) ->
            [
              ( "coverage",
                Obj [ ("covered", Int c); ("universe", Int total) ] );
            ]
        | None -> [])
      @ [
          ( "histograms",
            Obj
              (List.map
                 (fun (k, s) -> (k, Metrics.summary_json s))
                 h.hb_histograms) );
        ]))

type recorder = {
  r_spans : Span.collector;
  r_metrics : Metrics.t;
  r_every : int;
  r_on_heartbeat : heartbeat -> unit;
  mutable r_heartbeats : heartbeat list;  (* newest first *)
}

let default_ring_cap = 256
let default_heartbeat_every = 100

let recorder ?(ring_cap = default_ring_cap)
    ?(every = default_heartbeat_every) ?(on_heartbeat = fun _ -> ()) () =
  {
    r_spans = Span.create ~cap:ring_cap ();
    r_metrics = Metrics.create ();
    r_every = max 1 every;
    r_on_heartbeat = on_heartbeat;
    r_heartbeats = [];
  }

let recent_spans r = Span.spans r.r_spans
let dropped_spans r = Span.dropped r.r_spans
let heartbeats r = List.rev r.r_heartbeats
let recorder_metrics r = r.r_metrics

let flight_json ?cover r =
  Telemetry.Json.(
    Obj
      ([
         ("schema", Str "fj-flight/1");
         ( "traceEvents",
           Arr
             (Span.thread_name_event ~pid:1 ~tid:1 "fuzz"
             :: Span.trace_events ~pid:1 ~tid:1 r.r_spans) );
         ("displayTimeUnit", Str "ms");
         ("dropped_spans", Int (Span.dropped r.r_spans));
         ("heartbeats", Arr (List.map heartbeat_json (heartbeats r)));
         ("metrics", Metrics.to_json r.r_metrics);
       ]
      @
      match cover with
      | Some c -> [ ("coverage", Coverage.summary_json c) ]
      | None -> []))

let emit_heartbeat (r : recorder) ~t_start ~cases ~total ~passed ~skipped
    ~incidents ~cover =
  let elapsed_ms = Telemetry.now_ms () -. t_start in
  let hb =
    {
      hb_cases = cases;
      hb_total = total;
      hb_elapsed_ms = elapsed_ms;
      hb_rate =
        (if elapsed_ms <= 0.0 then 0.0
         else float_of_int cases /. (elapsed_ms /. 1000.0));
      hb_passed = passed;
      hb_skipped = skipped;
      hb_incidents = incidents;
      hb_epoch_ms = Telemetry.epoch_ms ();
      hb_coverage =
        Option.map
          (fun c -> (Coverage.covered c, Coverage.universe_size))
          cover;
      hb_histograms = Metrics.histograms r.r_metrics;
    }
  in
  r.r_heartbeats <- hb :: r.r_heartbeats;
  r.r_on_heartbeat hb

(* Retained interesting seeds for guided runs. Entries are kept as
   s-expression text: re-reading through [Sexp.read] bumps the global
   Ident supply past every unique in the program, so the fresh binders
   [Gen.mutate] allocates can never collide with loaded ones. *)
let pool_cap = 32

let run ?(size = Gen.default_size) ?(fuel = default_fuel)
    ?(on_case = fun _ _ -> ()) ?recorder ?cover ?(guided = false)
    ?(on_interesting = fun _ _ -> ())
    ?(should_stop = fun () -> false) ~seed ~count () : summary =
  let passed = ref 0 and skipped = ref 0 and failures = ref [] in
  let ran = ref 0 in
  let interesting = ref 0 in
  let pool : string list ref = ref [] in
  (* Mutation choices draw from their own RNG, seeded from [seed]
     alone, so a guided run replays exactly. *)
  let mrng = Random.State.make [| seed; 0x6d75 |] in
  let t_start = Telemetry.now_ms () in
  (* Raised (locally) when [should_stop] interrupts a soak: the loop
     unwinds to the final heartbeat so the flight recorder closes with
     an honest account of the partial run. *)
  let module M = struct exception Stop end in
  let body () =
    (try
      for i = 0 to count - 1 do
      if should_stop () then raise_notrace M.Stop;
      ran := i + 1;
      let case_seed = seed + i in
      let e =
        if guided && !pool <> [] && Random.State.bool mrng then begin
          let s =
            List.nth !pool (Random.State.int mrng (List.length !pool))
          in
          let m = Gen.mutate mrng (Sexp.read dc s) in
          (* A mutant that fails to lint would register as a bogus
             "generator-ill-typed" counterexample; fall back to fresh
             generation instead. *)
          if Lint.well_typed dc m then m
          else Gen.program_of_seed ~size case_seed
        end
        else Gen.program_of_seed ~size case_seed
      in
      let covered_before =
        match cover with Some c -> Coverage.covered c | None -> 0
      in
      (* One span per case into the (ring-bounded) recorder, so a
         wedged soak shows its most recent cases post mortem. *)
      let v, case_ms =
        Span.with_span_timed ~cat:"fuzz" (Fmt.str "case %d" case_seed)
          (fun () ->
            let v = check_program ~fuel ?cover e in
            Span.annotate "verdict"
              (Telemetry.Json.Str
                 (match v with
                 | Pass -> "pass"
                 | Skip _ -> "skip"
                 | Fail { kind; _ } -> kind));
            v)
      in
      Metrics.observe "fuzz.case_ms" case_ms;
      (match cover with
      | Some c when Coverage.covered c > covered_before ->
          (* This case reached a previously-unseen coverage point:
             retain it as a mutation seed for later guided cases. *)
          incr interesting;
          Metrics.incr "fuzz.interesting";
          pool :=
            Sexp.write e
            :: (if List.length !pool >= pool_cap then
                  List.filteri (fun j _ -> j < pool_cap - 1) !pool
                else !pool);
          on_interesting case_seed e
      | _ -> ());
      on_case case_seed v;
      (match v with
      | Pass ->
          Metrics.incr "fuzz.pass";
          incr passed
      | Skip _ ->
          Metrics.incr "fuzz.skip";
          incr skipped
      | Fail { mode; kind; detail } ->
          Metrics.incr "fuzz.fail";
          (* Minimize: candidates must still lint (shrinking is
             structural, not type-directed) and still fail the oracle —
             any failure kind counts, so the shrinker may surface an
             even simpler neighbouring bug. *)
          let failing e =
            Lint.well_typed dc e
            &&
            match check_program ~fuel e with
            | Fail _ -> true
            | _ -> false
          in
          let minimized =
            Span.with_span ~cat:"fuzz" (Fmt.str "minimize %d" case_seed)
              (fun () -> Gen.minimize ~failing e)
          in
          failures :=
            {
              f_seed = case_seed;
              f_mode = mode;
              f_kind = kind;
              f_detail = detail;
              f_size_orig = Syntax.size e;
              f_program = minimized;
            }
            :: !failures);
      match recorder with
      | Some r when (i + 1) mod r.r_every = 0 && i + 1 < count ->
          emit_heartbeat r ~t_start ~cases:(i + 1) ~total:count
            ~passed:!passed ~skipped:!skipped
            ~incidents:(List.length !failures) ~cover
      | _ -> ()
      done
    with M.Stop -> ());
    (* Always close with a final heartbeat: even a short smoke run (or
       an interrupted soak) leaves one line saying what happened. *)
    match recorder with
    | Some r when !ran > 0 || count > 0 ->
        emit_heartbeat r ~t_start ~cases:!ran ~total:count ~passed:!passed
          ~skipped:!skipped ~incidents:(List.length !failures) ~cover
    | _ -> ()
  in
  (match recorder with
  | None -> body ()
  | Some r ->
      Span.with_collector r.r_spans (fun () ->
          Metrics.with_registry r.r_metrics body));
  {
    cases = !ran;
    passed = !passed;
    skipped = !skipped;
    interesting = !interesting;
    failures = List.rev !failures;
  }
