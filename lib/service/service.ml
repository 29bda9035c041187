(* The fault-tolerant compile service. See service.mli. *)

open Fj_core

type rung = Full | Degraded | Check_only

let rung_name = function
  | Full -> "full"
  | Degraded -> "baseline"
  | Check_only -> "check-only"

let rung_of_name = function
  | "full" -> Some Full
  | "baseline" -> Some Degraded
  | "check-only" -> Some Check_only
  | _ -> None

type failure = {
  f_rung : string;
  f_attempt : int;
  f_cause : string;
  f_detail : string;
  f_backoff_ms : float;
}

let failure_json f =
  Telemetry.Json.(
    Obj
      [
        ("rung", Str f.f_rung);
        ("attempt", Int f.f_attempt);
        ("cause", Str f.f_cause);
        ("detail", Str f.f_detail);
        ("backoff_ms", Float f.f_backoff_ms);
      ])

type attempt_ok = {
  a_rung : rung;
  a_output : string;
  a_output_size : int;
  a_ticks : (string * int) list;
  a_decisions : Decision.event list;
  a_incidents : Guard.incident list;
}

type status =
  | Compiled of attempt_ok
  | Rejected of { kind : string; detail : string }
  | Exhausted of { last : string }
  | Shed
  | Dropped of { reason : string }

let status_name = function
  | Compiled _ -> "compiled"
  | Rejected _ -> "rejected"
  | Exhausted _ -> "exhausted"
  | Shed -> "shed"
  | Dropped _ -> "dropped"

type outcome = {
  id : string;
  path : string;
  status : status;
  failures : failure list;
  ms : float;
}

type config = {
  jobs : int;
  queue_capacity : int;
  attempts_per_rung : int;
  backoff_base_ms : float;
  backoff_max_ms : float;
  seed : int;
  budget : Budget.spec;
  pipeline : Pipeline.config;
  no_prelude : bool;
  cache : Cache.t option;
  isolate : bool;
}

let default_config () =
  {
    jobs = 1;
    queue_capacity = 256;
    attempts_per_rung = 2;
    backoff_base_ms = 25.0;
    backoff_max_ms = 250.0;
    seed = 0;
    budget = Budget.default_spec;
    pipeline = Pipeline.default_config ();
    no_prelude = false;
    cache = None;
    isolate = false;
  }

(* --- backoff ------------------------------------------------------- *)

let backoff_ms ~base_ms ~max_ms ~seed ~id ~rung ~attempt =
  let h = Hashtbl.hash (seed, id, rung, attempt) in
  let jitter = float_of_int (h land 0xffff) /. 65536.0 /. 2.0 in
  Float.min max_ms (base_ms *. (2.0 ** float_of_int attempt) *. (1.0 +. jitter))

(* --- loading ------------------------------------------------------- *)

(* A permanent failure: bad input, not bad luck. Never retried. *)
exception Permanent of string * string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let is_sexp path = Filename.check_suffix path ".sexp"

let load_source ~no_prelude ~path src =
  if is_sexp path then
    match Sexp.read Datacon.builtins src with
    | core -> (Datacon.builtins, core)
    | exception exn ->
        raise (Permanent ("bad-sexp", Printexc.to_string exn))
  else
    match
      if no_prelude then Fj_surface.Infer.compile src
      else Fj_surface.Prelude.compile src
    with
    | denv, core -> (
        match Lint.lint_result denv core with
        | Ok _ -> (denv, core)
        | Error err ->
            raise (Permanent ("ill-typed", Fmt.str "%a" Lint.pp_error err)))
    | exception Fj_surface.Parser.Parse_error (msg, _) ->
        raise (Permanent ("parse-error", msg))
    | exception Fj_surface.Lexer.Lex_error (msg, _) ->
        raise (Permanent ("parse-error", msg))
    | exception Fj_surface.Infer.Type_error (msg, _) ->
        raise (Permanent ("type-error", msg))

(* --- fingerprint --------------------------------------------------- *)

(* Everything that can change what a compile produces, so a cache
   entry recorded under one configuration can never replay under
   another. *)
let fingerprint cfg rung =
  let p = cfg.pipeline in
  let limits = Budget.limits cfg.budget in
  String.concat ";"
    [
      "fp1";
      rung_name rung;
      Pipeline.mode_name p.Pipeline.mode;
      string_of_int p.Pipeline.iterations;
      string_of_int p.Pipeline.inline_threshold;
      string_of_int p.Pipeline.dup_threshold;
      string_of_bool p.Pipeline.strictness;
      string_of_bool p.Pipeline.cse;
      string_of_bool p.Pipeline.spec_constr;
      String.concat "," (List.map (fun r -> r.Rules.name) p.Pipeline.rules);
      Guard.policy_name p.Pipeline.policy;
      (match limits.Guard.pass_fuel with
      | None -> "inf"
      | Some n -> string_of_int n);
      string_of_int limits.Guard.max_growth_factor;
      string_of_int limits.Guard.max_growth_slack;
      string_of_bool cfg.no_prelude;
    ]

(* --- one attempt, in process --------------------------------------- *)

let rung_pipeline cfg rung denv =
  let p = cfg.pipeline in
  {
    p with
    Pipeline.mode = (if rung = Degraded then Pipeline.Baseline else p.Pipeline.mode);
    datacons = denv;
    limits = Budget.limits cfg.budget;
    cache = None;
  }

(* Run one attempt at one rung under a fresh per-compilation context:
   its own unique supply (so identical inputs yield byte-identical
   Core regardless of what other requests this domain has processed)
   and an armed budget watchdog. *)
let compile_attempt cfg ~rung ~path ~src : attempt_ok =
  Context.with_fresh @@ fun () ->
  let budget = Budget.start cfg.budget in
  Budget.with_watchdog budget @@ fun () ->
  (match Fault.trigger "service/slow-pass" with
  | Some _ -> Budget.burn budget
  | None -> ());
  let denv, core = load_source ~no_prelude:cfg.no_prelude ~path src in
  Budget.check budget;
  match rung with
  | Check_only ->
      {
        a_rung = rung;
        a_output = Sexp.write core;
        a_output_size = Syntax.size core;
        a_ticks = [];
        a_decisions = [];
        a_incidents = [];
      }
  | Full | Degraded ->
      let core', report = Pipeline.run_report (rung_pipeline cfg rung denv) core in
      Budget.check budget;
      {
        a_rung = rung;
        a_output = Sexp.write core';
        a_output_size = Syntax.size core';
        a_ticks = Pipeline.ticks report;
        a_decisions = Pipeline.decisions report;
        a_incidents = Pipeline.incidents report;
      }

(* Classify an attempt's escape as a transient (cause, detail). *)
let transient_of_exn = function
  | Budget.Deadline_exceeded { wall_ms } ->
      ("deadline", Fmt.str "exceeded %.0fms deadline" wall_ms)
  | Fault.Injected point -> ("injected", point)
  | Pipeline.Pass_broke_lint (pass, _) -> ("lint", pass)
  | exn -> ("exn", Printexc.to_string exn)

(* --- one attempt, isolated (fork) ---------------------------------- *)

(* The attempt result codec: across the fork boundary, and the
   request cache's payload. *)
let attempt_ok_json a =
  Telemetry.Json.(
    Obj
      [
        ("rung", Str (rung_name a.a_rung));
        ("output", Str a.a_output);
        ("output_size", Int a.a_output_size);
        ( "ticks",
          Obj (List.map (fun (k, v) -> (k, Int v)) a.a_ticks) );
        ("decisions", Arr (List.map Decision.event_json a.a_decisions));
        ("incidents", Arr (List.map Guard.incident_json a.a_incidents));
      ])

(* All or nothing: a missing field or one element that does not decode
   refuses the whole payload, so a short payload can never become a
   .meta.json that differs from the in-process compile. *)
let attempt_ok_of_json = function
  | Telemetry.Json.Obj fields ->
      let open Telemetry.Json in
      let ( let* ) = Option.bind in
      let field k = List.assoc_opt k fields in
      let all decode l =
        let xs = List.filter_map decode l in
        if List.compare_lengths xs l = 0 then Some xs else None
      in
      let* a_rung =
        match field "rung" with Some (Str r) -> rung_of_name r | _ -> None
      in
      let* a_output = match field "output" with Some (Str s) -> Some s | _ -> None in
      let* a_output_size =
        match field "output_size" with Some (Int n) -> Some n | _ -> None
      in
      let* a_ticks =
        match field "ticks" with
        | Some (Obj kvs) ->
            all (function k, Int n -> Some (k, n) | _ -> None) kvs
        | _ -> None
      in
      let* a_decisions =
        match field "decisions" with
        | Some (Arr es) -> all Decision.event_of_json es
        | _ -> None
      in
      let* a_incidents =
        match field "incidents" with
        | Some (Arr is) -> all Guard.incident_of_json is
        | _ -> None
      in
      Some { a_rung; a_output; a_output_size; a_ticks; a_decisions; a_incidents }
  | _ -> None

(* Child exit codes for the isolate protocol. *)
let exit_ok = 0
let exit_permanent = 4
let exit_transient = 5

(* In [--isolate] mode service faults must be claimed by the parent:
   the forked child inherits a {e copy} of the fault registry, so a
   fire limit decremented in the child would never reach the parent
   and a "transient" fault would fire in every retry forever. The
   claimed behaviour crosses the fork through this flag. *)
let inject_slow = ref false

let isolated_attempt cfg ~rung ~path ~src : (attempt_ok, [ `P of string * string | `T of string * string ]) result =
  let crash = Fault.trigger "service/worker" <> None in
  inject_slow := Fault.trigger "service/slow-pass" <> None;
  let result_file =
    Filename.temp_file "fjc-isolate" (Fmt.str ".%d.json" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () ->
      inject_slow := false;
      try Sys.remove result_file with Sys_error _ -> ())
  @@ fun () ->
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* Child: one attempt, result through the file, verdict through
         the exit code. The injected worker crash dies uncleanly on
         purpose — the parent must see a crash, not a verdict. *)
      let code =
        try
          if crash then raise (Fault.Injected "service/worker");
          if !inject_slow then Budget.burn (Budget.start cfg.budget);
          let a = compile_attempt cfg ~rung ~path ~src in
          let oc = open_out_bin result_file in
          output_string oc (Telemetry.Json.to_string (attempt_ok_json a));
          close_out oc;
          exit_ok
        with
        | Permanent (kind, detail) ->
            let oc = open_out_bin result_file in
            output_string oc
              (Telemetry.Json.to_string
                 Telemetry.Json.(
                   Obj [ ("kind", Str kind); ("detail", Str detail) ]));
            close_out oc;
            exit_permanent
        | Fault.Injected _ -> 70 (* simulated crash: die uncleanly *)
        | _ -> exit_transient
      in
      (* Skip at_exit (the parent owns the terminal and any recorders). *)
      Unix._exit code
  | pid -> (
      (* Parent: reap, with a hard kill at the deadline — the real
         watchdog isolate mode buys us. *)
      let deadline =
        Option.map (fun w -> Telemetry.now_ms () +. w +. 100.0) cfg.budget.Budget.wall_ms
      in
      let rec reap () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            (match deadline with
            | Some d when Telemetry.now_ms () > d ->
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            | _ -> ());
            Unix.sleepf 0.002;
            reap ()
        | _, status -> status
      in
      let read_result () =
        try Ok (read_file result_file)
        with Sys_error msg -> Error msg
      in
      match reap () with
      | Unix.WEXITED c when c = exit_ok -> (
          match Result.bind (read_result ()) Telemetry.Json.parse with
          | Ok j -> (
              match attempt_ok_of_json j with
              | Some a -> Ok a
              | None -> Error (`T ("exn", "unreadable isolate result")))
          | Error e -> Error (`T ("exn", "unreadable isolate result: " ^ e)))
      | Unix.WEXITED c when c = exit_permanent -> (
          match Result.bind (read_result ()) Telemetry.Json.parse with
          | Ok (Telemetry.Json.Obj fields) ->
              let str k =
                match List.assoc_opt k fields with
                | Some (Telemetry.Json.Str s) -> Some s
                | _ -> None
              in
              Error
                (`P
                   ( Option.value ~default:"error" (str "kind"),
                     Option.value ~default:"" (str "detail") ))
          | _ -> Error (`P ("error", "unreadable isolate result"))
        )
      | Unix.WEXITED c when c = exit_transient -> Error (`T ("exn", "transient failure in isolated child"))
      | Unix.WEXITED c -> Error (`T ("worker-crash", Fmt.str "child exited %d" c))
      | Unix.WSIGNALED s when s = Sys.sigkill && deadline <> None ->
          Error
            (`T
               ( "deadline",
                 Fmt.str "killed after %.0fms deadline"
                   (Option.get cfg.budget.Budget.wall_ms) ))
      | Unix.WSIGNALED s -> Error (`T ("worker-crash", Fmt.str "child killed by signal %d" s))
      | Unix.WSTOPPED _ -> Error (`T ("worker-crash", "child stopped")))

(* --- the retry/degrade ladder -------------------------------------- *)

let next_rung = function
  | Full -> Some Degraded
  | Degraded -> Some Check_only
  | Check_only -> None

let run_attempt cfg ~rung ~path ~src :
    (attempt_ok, [ `P of string * string | `T of string * string ]) result =
  if cfg.isolate then
    (* [Unix.fork] itself can fail — most notably it refuses outright
       once any domain has ever been spawned in this process. That is
       an environmental (transient-class) failure of the attempt, not
       a crash: it must feed the ladder, never the supervisor. *)
    match isolated_attempt cfg ~rung ~path ~src with
    | r -> r
    | exception exn -> Error (`T (transient_of_exn exn))
  else
    match compile_attempt cfg ~rung ~path ~src with
    | a -> Ok a
    | exception Permanent (kind, detail) -> Error (`P (kind, detail))
    | exception exn -> Error (`T (transient_of_exn exn))

(* The request entry's key: everything that decides what the [Full]
   rung makes of this source. *)
let request_key cfg ~path src =
  [
    "fj-request/1";
    fingerprint cfg Full;
    (if is_sexp path then ".sexp" else ".fj");
    src;
  ]

let decode_attempt payload =
  Option.bind (Result.to_option (Telemetry.Json.parse payload)) attempt_ok_of_json

let process_one cfg ~id ~path : outcome =
  (* The worker-crash injection point: in domain mode the raise
     escapes all the way to the supervisor's trampoline (isolate mode
     claims the fault itself, per attempt, in the parent). *)
  if not cfg.isolate then (
    match Fault.trigger "service/worker" with
    | Some _ -> raise (Fault.Injected "service/worker")
    | None -> ());
  let t0 = Telemetry.now_ms () in
  let failures = ref [] in
  let rec attempt ~src rung n =
    match run_attempt cfg ~rung ~path ~src with
    | Ok a -> Compiled a
    | Error (`P (kind, detail)) -> Rejected { kind; detail }
    | Error (`T (cause, detail)) ->
        let last_of_rung = n + 1 >= cfg.attempts_per_rung in
        let out_of_rungs = last_of_rung && next_rung rung = None in
        let backoff =
          if out_of_rungs then 0.0
          else
            backoff_ms ~base_ms:cfg.backoff_base_ms ~max_ms:cfg.backoff_max_ms
              ~seed:cfg.seed ~id ~rung:(rung_name rung) ~attempt:n
        in
        failures :=
          {
            f_rung = rung_name rung;
            f_attempt = n;
            f_cause = cause;
            f_detail = detail;
            f_backoff_ms = backoff;
          }
          :: !failures;
        if backoff > 0.0 then Unix.sleepf (backoff /. 1000.0);
        if not last_of_rung then attempt ~src rung (n + 1)
        else (
          match next_rung rung with
          | Some r -> attempt ~src r 0
          | None -> Exhausted { last = cause ^ ": " ^ detail })
  in
  (* The source is read once and every attempt compiles those bytes:
     an edit landing between two reads cannot file a new output under
     the old key. *)
  let status =
    match read_file path with
    | exception Sys_error msg -> Rejected { kind = "unreadable"; detail = msg }
    | src -> (
        match cfg.cache with
        | None -> attempt ~src Full 0
        | Some cache -> (
            let key = request_key cfg ~path src in
            match Cache.find cache ~key ~decode:decode_attempt with
            | Some a -> Compiled a
            | None ->
                let status = attempt ~src Full 0 in
                (* Only a clean Full result is worth replaying: a
                   degraded rung or a Guard incident records bad luck
                   (a deadline, an armed pass fault), not the source. *)
                (match status with
                | Compiled ({ a_rung = Full; a_incidents = []; _ } as a) ->
                    Cache.add cache ~key
                      (Telemetry.Json.to_string (attempt_ok_json a))
                | _ -> ());
                status))
  in
  { id; path; status; failures = List.rev !failures; ms = Telemetry.now_ms () -. t0 }

(* --- batch --------------------------------------------------------- *)

type batch = {
  b_outcomes : outcome list;
  b_respawns : int;
  b_wall_ms : float;
  b_shutdown : Shutdown.reason option;
}

let run_batch cfg sources =
  let t0 = Telemetry.now_ms () in
  Supervisor.reset_respawns ();
  let queue = Workqueue.create ~capacity:cfg.queue_capacity in
  let lock = Mutex.create () in
  let results : (string, outcome) Hashtbl.t = Hashtbl.create 64 in
  let record o = Mutex.protect lock (fun () -> Hashtbl.replace results o.id o) in
  (* Admission up front, before any worker runs: the shed set then
     depends only on capacity and input order — deterministic — and a
     full queue is an explicit structured refusal, never a hang. *)
  List.iter
    (fun (id, path) ->
      match Workqueue.try_push queue (id, path) with
      | `Ok -> ()
      | `Shed | `Closed ->
          record { id; path; status = Shed; failures = []; ms = 0.0 })
    sources;
  Workqueue.close queue;
  let handle ~worker:_ (id, path) =
    match Shutdown.requested () with
    | Some r ->
        (* Draining: in-flight work finished; queued work is dropped
           with an explicit marker, and partial results still land. *)
        record
          {
            id;
            path;
            status = Dropped { reason = Shutdown.reason_name r };
            failures = [];
            ms = 0.0;
          }
    | None -> record (process_one cfg ~id ~path)
  in
  let crashes = ref [] in
  let on_crash (c : (string * string) Supervisor.crash) =
    let id, path = c.Supervisor.c_request in
    Mutex.protect lock (fun () -> crashes := (id, c) :: !crashes);
    if not c.Supervisor.c_requeued then
      record
        {
          id;
          path;
          status = Dropped { reason = "worker crashed: " ^ c.Supervisor.c_exn };
          failures = [];
          ms = 0.0;
        }
  in
  (* Isolate mode forks; forking a process that has running sibling
     domains is a hazard, so the pool is forced inline on this domain. *)
  let jobs = if cfg.isolate then 1 else cfg.jobs in
  Supervisor.run ~jobs ~queue ~handle ~on_crash ();
  (* Fold the supervisor's crash log into each outcome's failure
     history (a crash is one more absorbed transient). *)
  let outcomes =
    List.filter_map (fun (id, _) -> Hashtbl.find_opt results id)
      (List.sort_uniq compare (List.map (fun (id, p) -> (id, p)) sources))
  in
  let outcomes =
    List.map
      (fun o ->
        let mine =
          List.filter (fun (id, _) -> String.equal id o.id) !crashes
          |> List.map (fun (_, c) ->
                 {
                   f_rung = "pool";
                   f_attempt = c.Supervisor.c_respawn - 1;
                   f_cause = "worker-crash";
                   f_detail = c.Supervisor.c_exn;
                   f_backoff_ms = 0.0;
                 })
        in
        { o with failures = mine @ o.failures })
      outcomes
  in
  {
    b_outcomes = List.sort (fun a b -> String.compare a.id b.id) outcomes;
    b_respawns = Supervisor.respawns ();
    b_wall_ms = Telemetry.now_ms () -. t0;
    b_shutdown = Shutdown.requested ();
  }

(* --- reporting ----------------------------------------------------- *)

let ticks_json l =
  Telemetry.Json.Obj (List.map (fun (k, v) -> (k, Telemetry.Json.Int v)) l)

(* The deterministic per-request document: everything here must be
   byte-identical across --jobs levels and cold/warm cache, so no
   timings, no cache counters, no backoff history. *)
let meta_json id (a : attempt_ok) =
  Telemetry.Json.(
    Obj
      [
        ("v", Str "fj-meta/1");
        ("id", Str id);
        ("rung", Str (rung_name a.a_rung));
        ("output_size", Int a.a_output_size);
        ("ticks", ticks_json a.a_ticks);
        ("decisions", Arr (List.map Decision.event_json a.a_decisions));
        ("incidents", Arr (List.map Guard.incident_json a.a_incidents));
      ])

let outcome_row o =
  Telemetry.Json.(
    Obj
      ([
         ("id", Str o.id);
         ("path", Str o.path);
         ("status", Str (status_name o.status));
       ]
      @ (match o.status with
        | Compiled a ->
            [
              ("rung", Str (rung_name a.a_rung));
              ("output_size", Int a.a_output_size);
            ]
        | Rejected { kind; detail } ->
            [ ("kind", Str kind); ("detail", Str detail) ]
        | Exhausted { last } -> [ ("last", Str last) ]
        | Shed | Dropped _ -> [])
      @ (match o.status with
        | Dropped { reason } -> [ ("reason", Str reason) ]
        | _ -> [])
      @ [
          ("ms", Float o.ms);
          ("failures", Arr (List.map failure_json o.failures));
        ]))

let count p l = List.length (List.filter p l)

let batch_json cfg b =
  let status_is name o = String.equal (status_name o.status) name in
  Telemetry.Json.(
    Obj
      ([
         ("v", Str "fj-batch/1");
         ("jobs", Int cfg.jobs);
         ("isolate", Bool cfg.isolate);
         ("requests", Int (List.length b.b_outcomes));
         ("compiled", Int (count (status_is "compiled") b.b_outcomes));
         ("rejected", Int (count (status_is "rejected") b.b_outcomes));
         ("exhausted", Int (count (status_is "exhausted") b.b_outcomes));
         ("shed", Int (count (status_is "shed") b.b_outcomes));
         ("dropped", Int (count (status_is "dropped") b.b_outcomes));
         ( "degraded",
           Int
             (count
                (fun o ->
                  match o.status with
                  | Compiled a -> a.a_rung <> Full
                  | _ -> false)
                b.b_outcomes) );
         ("worker_respawns", Int b.b_respawns);
         ("wall_ms", Float b.b_wall_ms);
       ]
      @ (match b.b_shutdown with
        | None -> []
        | Some r -> [ ("shutdown", Str (Shutdown.reason_name r)) ])
      @ (match cfg.cache with
        | None -> []
        | Some c -> [ ("cache", Cache.stats_json c) ])
      @ [ ("rows", Arr (List.map outcome_row b.b_outcomes)) ]))

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let write_batch cfg ~dir b =
  mkdir_p dir;
  List.iter
    (fun o ->
      match o.status with
      | Compiled a ->
          write_file (Filename.concat dir (o.id ^ ".sexp")) (a.a_output ^ "\n");
          write_file
            (Filename.concat dir (o.id ^ ".meta.json"))
            (Telemetry.Json.to_string (meta_json o.id a) ^ "\n")
      | _ -> ())
    b.b_outcomes;
  write_file
    (Filename.concat dir "results.json")
    (Telemetry.Json.to_string (batch_json cfg b) ^ "\n")

let batch_exit_code b =
  match b.b_shutdown with
  | Some r -> Shutdown.exit_code r
  | None ->
      if List.exists (fun o -> o.status = Shed) b.b_outcomes then 3
      else if
        List.exists
          (fun o ->
            match o.status with
            | Rejected _ | Exhausted _ | Dropped _ -> true
            | _ -> false)
          b.b_outcomes
      then 1
      else 0

(* --- serve --------------------------------------------------------- *)

let response_json o =
  Telemetry.Json.(
    Obj
      ([ ("id", Str o.id); ("status", Str (status_name o.status)) ]
      @ (match o.status with
        | Compiled a ->
            [
              ("rung", Str (rung_name a.a_rung));
              ("output_size", Int a.a_output_size);
              ("output", Str a.a_output);
            ]
        | Rejected { kind; detail } ->
            [ ("error", Str kind); ("detail", Str detail) ]
        | Exhausted { last } -> [ ("error", Str "exhausted"); ("detail", Str last) ]
        | Shed -> [ ("error", Str "shed"); ("detail", Str "queue full; retry later") ]
        | Dropped { reason } -> [ ("error", Str "dropped"); ("detail", Str reason) ])))

let sanitize_id path =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    path

let parse_request line =
  match String.index_opt line '\t' with
  | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )
  | None -> (sanitize_id line, line)

let serve_channels cfg ~input ~output =
  let queue = Workqueue.create ~capacity:cfg.queue_capacity in
  let out_lock = Mutex.create () in
  let respond o =
    Mutex.protect out_lock (fun () ->
        output_string output (Telemetry.Json.to_string (response_json o) ^ "\n");
        flush output)
  in
  let handle ~worker:_ (id, path) =
    match Shutdown.requested () with
    | Some r ->
        respond
          {
            id;
            path;
            status = Dropped { reason = Shutdown.reason_name r };
            failures = [];
            ms = 0.0;
          }
    | None -> respond (process_one cfg ~id ~path)
  in
  let on_crash (c : (string * string) Supervisor.crash) =
    if not c.Supervisor.c_requeued then
      let id, path = c.Supervisor.c_request in
      respond
        {
          id;
          path;
          status = Dropped { reason = "worker crashed: " ^ c.Supervisor.c_exn };
          failures = [];
          ms = 0.0;
        }
  in
  if cfg.isolate then begin
    (* Fork-per-attempt is only legal while this process has never
       spawned a domain, so isolate mode serves serially on the main
       domain: read a request, answer it, read the next. *)
    let rec serial () =
      match Shutdown.requested () with
      | Some _ -> ()
      | None -> (
          match input_line input with
          | exception End_of_file -> ()
          | line when String.trim line = "" -> serial ()
          | line ->
              handle ~worker:0 (parse_request (String.trim line));
              serial ())
    in
    serial ();
    Workqueue.close queue
  end
  else begin
    let pool =
      Domain.spawn (fun () ->
          Supervisor.run ~jobs:cfg.jobs ~queue ~handle ~on_crash ())
    in
    let rec loop () =
      match Shutdown.requested () with
      | Some _ -> ()
      | None -> (
          match input_line input with
          | exception End_of_file -> ()
          | line when String.trim line = "" -> loop ()
          | line -> (
              let id, path = parse_request (String.trim line) in
              match Workqueue.try_push queue (id, path) with
              | `Ok -> loop ()
              | `Shed ->
                  respond { id; path; status = Shed; failures = []; ms = 0.0 };
                  loop ()
              | `Closed -> ()))
    in
    loop ();
    Workqueue.close queue;
    Domain.join pool
  end;
  Shutdown.requested ()

let serve cfg ~input ~output = serve_channels cfg ~input ~output

let serve_socket cfg ~path =
  (try Sys.remove path with Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let rec accept_loop () =
    match Shutdown.requested () with
    | Some r -> Some r
    | None -> (
        match Unix.accept sock with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | client, _ ->
            let input = Unix.in_channel_of_descr client in
            let output = Unix.out_channel_of_descr client in
            let stopped = serve_channels cfg ~input ~output in
            (try Unix.close client with Unix.Unix_error _ -> ());
            (match stopped with Some r -> Some r | None -> accept_loop ()))
  in
  accept_loop ()
