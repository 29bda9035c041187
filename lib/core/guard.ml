(** The fault-tolerant pass harness — see the interface for the
    design. *)

type policy = Strict | Recover

let policy_name = function Strict -> "strict" | Recover -> "recover"

type limits = {
  pass_fuel : int option;
  max_growth_factor : int;
  max_growth_slack : int;
}

let default_limits =
  { pass_fuel = Some 2_000_000; max_growth_factor = 12; max_growth_slack = 2_000 }

type cause =
  | Exn of string
  | Lint_failed of string
  | Fuel_exhausted of { budget : int }
  | Size_exploded of { size_before : int; size_after : int; limit : int }

let cause_name = function
  | Exn _ -> "exception"
  | Lint_failed _ -> "lint"
  | Fuel_exhausted _ -> "fuel"
  | Size_exploded _ -> "size"

let cause_detail = function
  | Exn m -> m
  | Lint_failed m -> m
  | Fuel_exhausted { budget } -> Fmt.str "pass exceeded %d ticks" budget
  | Size_exploded { size_before; size_after; limit } ->
      Fmt.str "size %d -> %d exceeds ceiling %d" size_before size_after limit

let pp_cause ppf c = Fmt.pf ppf "%s: %s" (cause_name c) (cause_detail c)

type incident = { i_pass : string; i_cause : cause; i_restored : string }

let pp_incident ppf i =
  Fmt.pf ppf "pass %s rolled back (%a); resumed from %s" i.i_pass pp_cause
    i.i_cause i.i_restored

let incident_json (i : incident) =
  let payload =
    match i.i_cause with
    | Exn _ | Lint_failed _ -> []
    | Fuel_exhausted { budget } -> [ ("budget", Telemetry.Json.Int budget) ]
    | Size_exploded { size_before; size_after; limit } ->
        Telemetry.Json.
          [
            ("size_before", Int size_before);
            ("size_after", Int size_after);
            ("limit", Int limit);
          ]
  in
  Telemetry.Json.(
    Obj
      ([
         ("pass", Str i.i_pass);
         ("cause", Str (cause_name i.i_cause));
         ("detail", Str (cause_detail i.i_cause));
         ("restored", Str i.i_restored);
       ]
      @ payload))

let incident_of_json (j : Telemetry.Json.t) : incident option =
  let open Telemetry.Json in
  match j with
  | Obj fields ->
      let str k =
        match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
      in
      let int k =
        match List.assoc_opt k fields with Some (Int n) -> Some n | _ -> None
      in
      let ( let* ) = Option.bind in
      let* pass = str "pass" in
      let* cause = str "cause" in
      let* restored = str "restored" in
      let detail = Option.value ~default:"" (str "detail") in
      let* cause =
        match cause with
        | "exception" -> Some (Exn detail)
        | "lint" -> Some (Lint_failed detail)
        | "fuel" ->
            let* budget = int "budget" in
            Some (Fuel_exhausted { budget })
        | "size" ->
            let* size_before = int "size_before" in
            let* size_after = int "size_after" in
            let* limit = int "limit" in
            Some (Size_exploded { size_before; size_after; limit })
        | _ -> None
      in
      Some { i_pass = pass; i_cause = cause; i_restored = restored }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Fuel metering                                                       *)
(* ------------------------------------------------------------------ *)

(* Raised internally when a metered pass exceeds its tick budget;
   [protect] turns it into a [Fuel_exhausted] incident, so it never
   escapes to callers. *)
exception Cutoff of int

(* Fuel is metered off the tick stream: the observer [with_budget]
   installs owns the remaining fuel, so a budget lives exactly as long
   as the pass it meters. Unlimited fuel installs nothing. *)
let with_budget b f =
  match b with
  | None -> f ()
  | Some total ->
      let remaining = ref total in
      Telemetry.with_observer
        (fun n ->
          remaining := !remaining - n;
          if !remaining < 0 then raise (Cutoff total))
        f

(* ------------------------------------------------------------------ *)
(* The harness                                                         *)
(* ------------------------------------------------------------------ *)

(* Lint errors quote the offending expression in full context, which
   for a whole program is pages of text; an incident record wants the
   diagnosis, not the dump. *)
let truncate_detail s =
  let cap = 400 in
  if String.length s <= cap then s
  else String.sub s 0 cap ^ Fmt.str " ... [%d more bytes]" (String.length s - cap)

let protect ~limits ~datacons ~pass ~restored ~size_before f (e : Syntax.expr)
    : (Syntax.expr * Syntax.measure * float, incident) result =
  (* A rollback is a structural decision, not timed work, but marking
     it as a (near-zero) span puts the guard's verdict on the same
     Perfetto track as the phases it judged; the cause counters feed
     the metrics registry the heartbeats snapshot. *)
  let fail cause =
    Span.with_span ~cat:"guard" "rollback" (fun () ->
        Span.annotate "cause" (Telemetry.Json.Str (cause_name cause)));
    Metrics.incr "guard.rollbacks";
    Metrics.incr ("guard.rollback." ^ cause_name cause);
    Error { i_pass = pass; i_cause = cause; i_restored = restored }
  in
  match
    with_budget limits.pass_fuel (fun () ->
        Span.with_span ~cat:"guard" "body" (fun () -> f e))
  with
  | exception Cutoff total -> fail (Fuel_exhausted { budget = total })
  | exception Stack_overflow -> fail (Exn "stack overflow")
  | exception exn -> fail (Exn (Printexc.to_string exn))
  | e' -> (
      let m = Syntax.measure e' in
      let size_after = m.Syntax.m_size in
      let limit =
        (limits.max_growth_factor * size_before) + limits.max_growth_slack
      in
      if size_after > limit then
        fail (Size_exploded { size_before; size_after; limit })
      else
        let result, lint_ms =
          Span.with_span_timed ~cat:"guard" "lint" (fun () ->
              match Lint.lint_result datacons e' with
              | r -> Ok r
              | exception exn -> Error exn)
        in
        Metrics.observe "guard.lint_ms" lint_ms;
        match result with
        | Ok (Ok _) -> Ok (e', m, lint_ms)
        | Ok (Error err) ->
            fail (Lint_failed (truncate_detail (Fmt.str "%a" Lint.pp_error err)))
        | Error exn ->
            fail (Lint_failed ("lint itself raised: " ^ Printexc.to_string exn)))
