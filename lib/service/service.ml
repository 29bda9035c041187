(* The fault-tolerant compile service. See service.mli. *)

open Fj_core

type rung = Full | Degraded | Check_only

let rung_name = function
  | Full -> "full"
  | Degraded -> "baseline"
  | Check_only -> "check-only"

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

(* The first term binder of [e] that reuses the unique of a binder
   whose scope it sits in. Lint accepts such a term, since its scope
   table shadows, but the passes keep per-binder state keyed by unique
   (Contify's cells), so they would miscompile it. The compiler's own
   trees never rebind a unique, so only [.sexp] input is checked. *)
let rebound_binder e =
  let open Syntax in
  let scope = Ident.Tbl.create 16 in
  let exception Rebound of var in
  let bind (x : var) =
    if Ident.Tbl.mem scope x.v_name then raise (Rebound x);
    Ident.Tbl.add scope x.v_name ()
  and unbind (x : var) = Ident.Tbl.remove scope x.v_name in
  let rec go = function
    | Var _ | Lit _ -> ()
    | App (f, a) ->
        go f;
        go a
    | TyApp (b, _) | TyLam (_, b) -> go b
    | Con (_, _, es) | Prim (_, es) | Jump (_, _, es, _) -> List.iter go es
    | Lam (x, b) ->
        bind x;
        go b;
        unbind x
    | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
        go rhs;
        bind x;
        go body;
        unbind x
    | Let (Rec pairs, body) ->
        List.iter (fun (x, _) -> bind x) pairs;
        List.iter (fun (_, rhs) -> go rhs) pairs;
        go body;
        List.iter (fun (x, _) -> unbind x) pairs
    | Case (scrut, alts) ->
        go scrut;
        List.iter
          (fun a ->
            let xs = pat_binders a.alt_pat in
            List.iter bind xs;
            go a.alt_rhs;
            List.iter unbind xs)
          alts
    | Join (JNonRec d, body) ->
        defn d;
        bind d.j_var;
        go body;
        unbind d.j_var
    | Join (JRec ds, body) ->
        List.iter (fun d -> bind d.j_var) ds;
        List.iter defn ds;
        go body;
        List.iter (fun d -> unbind d.j_var) ds
  and defn d =
    List.iter bind d.j_params;
    go d.j_rhs;
    List.iter unbind d.j_params
  in
  match go e with () -> None | exception Rebound x -> Some x

let load_source ~no_prelude ~path src =
  if is_sexp path then (
    match Sexp.read Datacon.builtins src with
    | core ->
        (* Lint draws uniques. Drawn from a copy of the supply, they
           leave the keys the compile allocates, and so its output, as
           they would be unlinted. *)
        Ident.with_supply (Ident.copy_supply ()) (fun () ->
            lint_input Datacon.builtins core);
        (match rebound_binder core with
        | None -> ()
        | Some x ->
            raise
              (Permanent
                 ( "bad-sexp",
                   Fmt.str
                     "binder %s.%d reuses the unique of a binder around it"
                     (Ident.name x.v_name) (Ident.id x.v_name) )));
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

(* --- the request cache ---------------------------------------------- *)

(* The request entry's key: everything that decides what the [Full]
   rung makes of this source. The tag names the payload layout below,
   so an entry in an older layout is a miss, not a quarantine. *)
let request_key cfg ~path src =
  [
    "fj-request/2";
    fingerprint cfg Full;
    (if is_sexp path then ".sexp" else ".fj");
    src;
  ]

(* The entry's payload: LF-terminated lines of TAB-separated fields,
   and the output verbatim.

     OUTPUT_SIZE  OUTPUT_BYTES  TICKS  EVENTS
     OUTPUT                                       (OUTPUT_BYTES bytes)
     NAME  N                                      (TICKS lines)
     PASS  ACTION  SITE  VERDICT  [REASON  INT*]  (EVENTS lines)

   Only a clean result is stored, one compiled at [Full] with no Guard
   incidents: a degraded rung or an incident records bad luck (a
   deadline, an armed pass fault), not the source. So neither is
   written, and the encoder refuses them. *)
exception Unstorable

let encode_attempt a =
  let b =
    Buffer.create
      (String.length a.a_output + (64 * List.length a.a_decisions)
      + (32 * List.length a.a_ticks) + 64)
  in
  (* Every field ends in a TAB; [end_line] turns the last into a LF. *)
  let field s =
    if String.exists (function '\t' | '\n' -> true | _ -> false) s then
      raise Unstorable;
    Buffer.add_string b s;
    Buffer.add_char b '\t'
  in
  let int n = field (string_of_int n) in
  let end_line () =
    Buffer.truncate b (Buffer.length b - 1);
    Buffer.add_char b '\n'
  in
  match
    if a.a_rung <> Full || a.a_incidents <> [] then raise Unstorable;
    int a.a_output_size;
    int (String.length a.a_output);
    int (List.length a.a_ticks);
    int (List.length a.a_decisions);
    end_line ();
    Buffer.add_string b a.a_output;
    Buffer.add_char b '\n';
    List.iter
      (fun (name, n) ->
        field name;
        int n;
        end_line ())
      a.a_ticks;
    List.iter
      (fun e ->
        Decision.write_fields ~field ~int e;
        end_line ())
      a.a_decisions
  with
  | () -> Some (Buffer.contents b)
  | exception Unstorable -> None

exception Refused

(* The inverse of [encode_attempt] on the payload [s] holds from [pos]
   on, in one scan. All or nothing: every count, length, name and
   integer must read back (an integer in [string_of_int]'s spelling
   only, by [Sexp.int_between], which reads idents' uniques too), each
   line must end after the field its reader takes last, and no byte
   may follow the last line; anything else is [None], which the cache
   quarantines. *)
let decode_attempt s pos =
  let len = String.length s in
  let i = ref pos in
  (* Whether the field read last ended its line. *)
  let line_ended = ref false in
  let end_line () = if !line_ended then line_ended := false else raise Refused in
  (* The end of the field at [!i]: its TAB or its line's LF. *)
  let field_end () =
    if !line_ended then raise Refused;
    let j = ref !i in
    while
      !j < len
      && match String.unsafe_get s !j with '\t' | '\n' -> false | _ -> true
    do
      incr j
    done;
    if !j = len then raise Refused;
    line_ended := s.[!j] = '\n';
    !j
  in
  let field () =
    let j = field_end () in
    let f = String.sub s !i (j - !i) in
    i := j + 1;
    f
  in
  let int () =
    let j = field_end () in
    let n = Sexp.int_between s !i j in
    i := j + 1;
    n
  in
  let count () = match int () with n when n >= 0 -> n | _ -> raise Refused in
  let rec lines n read =
    if n = 0 then []
    else
      let x = read () in
      end_line ();
      x :: lines (n - 1) read
  in
  let tick () =
    let name = field () in
    (name, int ())
  in
  let event () =
    match Decision.read_fields ~field ~int with
    | Some e -> e
    | None -> raise Refused
  in
  match
    let a_output_size = int () in
    let bytes = count () in
    let n_ticks = count () in
    let n_events = count () in
    end_line ();
    if bytes >= len - !i || s.[!i + bytes] <> '\n' then raise Refused;
    let a_output = String.sub s !i bytes in
    i := !i + bytes + 1;
    let a_ticks = lines n_ticks tick in
    let a_decisions = lines n_events event in
    if !i <> len then raise Refused;
    { a_rung = Full; a_output; a_output_size; a_ticks; a_decisions; a_incidents = [] }
  with
  | a -> Some a
  | exception (Refused | Sexp.Parse_error _) -> None

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
                (* [encode_attempt] refuses what must not replay. *)
                (match status with
                | Compiled a ->
                    Option.iter (Cache.add cache ~key) (encode_attempt a)
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
   passing each outcome to [emit]. The last worker is the calling
   domain, so [jobs - 1] domains are spawned; they are joined even
   when the caller's worker raises. *)
let drain cfg ~jobs ~queue ~emit =
  let rec worker () =
    match Workqueue.pop queue with
    | None -> ()
    | Some req ->
        emit (handle_request cfg req);
        worker ()
  in
  let spawned = List.init (max 0 (jobs - 1)) (fun _ -> Domain.spawn worker) in
  Fun.protect ~finally:(fun () -> List.iter Domain.join spawned) worker

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
        ("ticks", Telemetry.ticks_json a.a_ticks);
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
