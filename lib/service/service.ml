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

let lint_input denv core =
  match Lint.lint_result denv core with
  | Ok _ -> ()
  | Error err -> raise (Permanent ("ill-typed", Fmt.str "%a" Lint.pp_error err))

let load_source ~no_prelude ~path src =
  if is_sexp path then (
    match Sexp.read Datacon.builtins src with
    | core ->
        (* Lint draws uniques. Drawn from a copy of the supply, they
           leave the keys the compile allocates, and so its output, as
           they would be unlinted. *)
        Ident.with_supply (Ident.copy_supply ()) (fun () ->
            lint_input Datacon.builtins core);
        (Datacon.builtins, core)
    | exception exn ->
        raise (Permanent ("bad-sexp", Printexc.to_string exn)))
  else
    match
      if no_prelude then Fj_surface.Infer.compile src
      else Fj_surface.Prelude.compile src
    with
    | denv, core ->
        lint_input denv core;
        (denv, core)
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

(* An attempt's verdict: [`P] is permanent (bad input, never retried),
   [`T] transient (fed to the ladder); both carry (cause, detail). *)
type verdict =
  (attempt_ok, [ `P of string * string | `T of string * string ]) result

let attempt_in_process cfg ~rung ~path ~src : verdict =
  match compile_attempt cfg ~rung ~path ~src with
  | a -> Ok a
  | exception Permanent (kind, detail) -> Error (`P (kind, detail))
  | exception exn -> Error (`T (transient_of_exn exn))

(* The attempt result codec: the request cache's payload. *)
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

(* --- one attempt, isolated (fork) ---------------------------------- *)

(* Read [fd] to end of file; [None] if [deadline] passes first. *)
let read_to_eof fd ~deadline =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    let timeout =
      match deadline with
      | None -> -1.0
      | Some d -> Float.max 0.0 ((d -. Telemetry.now_ms ()) /. 1000.0)
    in
    match Unix.select [ fd ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | [], _, _ -> None
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | 0 -> Some (Buffer.contents buf)
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | _, status -> status

(* The child runs the in-process attempt and sends back its verdict
   with the fault points it fired. The parent replays those, so fire
   limits count down across attempts as they do in process; it claims
   only [service/worker] itself, because that fault must show up as a
   real child death. *)
let isolated_attempt cfg ~rung ~path ~src : verdict =
  let crash = Fault.trigger "service/worker" <> None in
  let rd, wr = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | exception exn ->
      Unix.close rd;
      Unix.close wr;
      raise exn
  | 0 -> (
      (* Every path ends in [_exit]: an exception escaping here would
         run the parent's loop in the child, and [_exit] skips the
         parent's [at_exit] handlers. [Marshal] is safe across the
         pipe because both ends are the same binary. *)
      try
        if crash then Unix._exit 70;
        Fault.reset_fired ();
        let verdict = attempt_in_process cfg ~rung ~path ~src in
        let bytes = Marshal.to_bytes (verdict, Fault.fired ()) [] in
        ignore (Unix.write wr bytes 0 (Bytes.length bytes));
        Unix._exit 0
      with _ -> Unix._exit 70)
  | pid -> (
      Unix.close wr;
      (* A hard kill past the deadline: the watchdog isolate mode buys. *)
      let wall_ms = cfg.budget.Budget.wall_ms in
      let deadline =
        Option.map (fun w -> Telemetry.now_ms () +. w +. 100.0) wall_ms
      in
      let payload =
        Fun.protect
          ~finally:(fun () -> Unix.close rd)
          (fun () -> read_to_eof rd ~deadline)
      in
      if Option.is_none payload then (
        try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      match (payload, reap pid) with
      | None, _ ->
          Error
            (`T
               ( "deadline",
                 Fmt.str "killed after %.0fms deadline" (Option.get wall_ms) ))
      | Some bytes, Unix.WEXITED 0 ->
          let verdict, fired =
            (Marshal.from_string bytes 0 : verdict * string list)
          in
          List.iter (fun p -> ignore (Fault.trigger p)) fired;
          verdict
      | Some _, Unix.WEXITED c ->
          Error (`T ("worker-crash", Fmt.str "child exited %d" c))
      | Some _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          Error (`T ("worker-crash", Fmt.str "child killed by signal %d" s)))

(* --- the retry/degrade ladder -------------------------------------- *)

let next_rung = function
  | Full -> Some Degraded
  | Degraded -> Some Check_only
  | Check_only -> None

let run_attempt cfg ~rung ~path ~src : verdict =
  if cfg.isolate then
    (* [Unix.fork] itself can fail — most notably it refuses outright
       once any domain has ever been spawned in this process. That is
       an environmental (transient-class) failure of the attempt, not
       a crash: it must feed the ladder, never the crash rerun. *)
    match isolated_attempt cfg ~rung ~path ~src with
    | v -> v
    | exception exn -> Error (`T (transient_of_exn exn))
  else attempt_in_process cfg ~rung ~path ~src

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
     escapes to [handle_request], which reruns the request (isolate
     mode claims the fault itself, per attempt, in the parent). *)
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

(* --- draining the queue -------------------------------------------- *)

(* A request whose handling raises (a bug, or the armed
   [service/worker] fault) is rerun in place, each crash recorded on its
   own outcome; one that crashes this often is poison and is dropped. *)
let max_crashes = 3

let handle_request cfg (id, path) =
  let unanswered status failures = { id; path; status; failures; ms = 0.0 } in
  match Shutdown.requested () with
  | Some r ->
      (* Draining: in-flight work finished; queued work is dropped
         with an explicit marker, and partial results still land. *)
      unanswered (Dropped { reason = Shutdown.reason_name r }) []
  | None ->
      let rec run crashes =
        match process_one cfg ~id ~path with
        | o -> { o with failures = List.rev_append crashes o.failures }
        | exception exn ->
            let detail = Printexc.to_string exn in
            let crashes =
              {
                f_rung = "pool";
                f_attempt = List.length crashes;
                f_cause = "worker-crash";
                f_detail = detail;
                f_backoff_ms = 0.0;
              }
              :: crashes
            in
            if List.length crashes < max_crashes then run crashes
            else
              unanswered
                (Dropped { reason = "worker crashed: " ^ detail })
                (List.rev crashes)
      in
      run []

(* [jobs] workers pop requests until [queue] is closed and drained,
   passing each outcome to [emit]; with [jobs <= 1] the one worker is
   the calling domain. *)
let drain cfg ~jobs ~queue ~emit =
  let rec worker () =
    match Workqueue.pop queue with
    | None -> ()
    | Some req ->
        emit (handle_request cfg req);
        worker ()
  in
  if jobs <= 1 then worker ()
  else List.iter Domain.join (List.init jobs (fun _ -> Domain.spawn worker))

(* --- batch --------------------------------------------------------- *)

type batch = {
  b_outcomes : outcome list;
  b_respawns : int;
  b_wall_ms : float;
  b_shutdown : Shutdown.reason option;
}

let count p l = List.length (List.filter p l)

let run_batch cfg sources =
  let t0 = Telemetry.now_ms () in
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
  (* Isolate mode forks; forking a process that has running sibling
     domains is a hazard, so the pool is forced inline on this domain. *)
  drain cfg ~jobs:(if cfg.isolate then 1 else cfg.jobs) ~queue ~emit:record;
  let outcomes =
    List.sort
      (fun a b -> String.compare a.id b.id)
      (Hashtbl.fold (fun _ o acc -> o :: acc) results [])
  in
  let crashes o = count (fun f -> String.equal f.f_rung "pool") o.failures in
  {
    b_outcomes = outcomes;
    b_respawns = List.fold_left (fun n o -> n + crashes o) 0 outcomes;
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
  let out_lock = Mutex.create () in
  let respond o =
    Mutex.protect out_lock (fun () ->
        output_string output (Telemetry.Json.to_string (response_json o) ^ "\n");
        flush output)
  in
  let rec read submit =
    match Shutdown.requested () with
    | Some _ -> ()
    | None -> (
        match input_line input with
        | exception End_of_file -> ()
        | line when String.trim line = "" -> read submit
        | line ->
            submit (parse_request (String.trim line));
            read submit)
  in
  if cfg.isolate then
    (* Fork-per-attempt is only legal while this process has never
       spawned a domain, so isolate mode serves serially on the main
       domain: read a request, answer it, read the next. *)
    read (fun req -> respond (handle_request cfg req))
  else begin
    let queue = Workqueue.create ~capacity:cfg.queue_capacity in
    let pool =
      Domain.spawn (fun () -> drain cfg ~jobs:cfg.jobs ~queue ~emit:respond)
    in
    read (fun (id, path) ->
        match Workqueue.try_push queue (id, path) with
        | `Ok | `Closed -> ()
        | `Shed -> respond { id; path; status = Shed; failures = []; ms = 0.0 });
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
