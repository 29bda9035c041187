(** Tests for {!Fj_core.Guard} and {!Fj_core.Fault}: every injection
    point fires, the [Recover] policy rolls a failing pass back to a
    tree that lints and means the same thing, [Strict] still aborts,
    the fuel and size gates trip, and incident records survive a JSON
    round-trip (both standalone and through the pipeline trace). *)

open Fj_core
open Util

let compile src = Fj_surface.Prelude.compile src

(* Loop-heavy enough that every pass in the Join_points pipeline has
   real work (so every fault point is actually reached). *)
let src =
  {|
def main =
  let rec go i acc =
    if i > 40 then acc
    else if odd i then go (i + 1) (acc + i * 3)
    else go (i + 1) acc
  in go 1 0
|}

let recovered_run ?(behaviour = Fault.Raise) point =
  let denv, core = compile src in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~policy:Guard.Recover ()
  in
  Fault.with_armed
    [ (point, behaviour) ]
    (fun () ->
      let e, report = Pipeline.run_report cfg core in
      (denv, core, e, report, Fault.fired ()))

(* Tentpole acceptance: with any single fault armed, a Recover-mode
   compile completes, the output lints, and it evaluates to the same
   answer as the unoptimised seed — with the rollback on record. *)
let every_point_recovers () =
  List.iter
    (fun point ->
      let denv, core, e, report, fired = recovered_run point in
      Alcotest.(check bool)
        (Fmt.str "point %s fired" point)
        true (List.mem point fired);
      Alcotest.(check bool)
        (Fmt.str "incident recorded for %s" point)
        true
        (Pipeline.incidents report <> []);
      let _ = lints ~env:denv e in
      same_result core e)
    (* Pass points only: the service-layer points (service/worker,
       service/cache, service/slow-pass) fire in the compile service's
       retry/supervision machinery, not inside a pipeline pass — they
       are exercised by the service suite. *)
    Fault.pass_points

let incident_names_failing_pass () =
  let _, _, _, report, _ = recovered_run "contify/result" in
  match Pipeline.incidents report with
  | [] -> Alcotest.fail "expected at least one incident"
  | i :: _ ->
      Alcotest.(check string) "cause" "exception" (Guard.cause_name i.i_cause);
      Alcotest.(check bool)
        (Fmt.str "pass label %S mentions contify" i.i_pass)
        true
        (String.length i.i_pass >= 7 && String.sub i.i_pass 0 7 = "contify")

let ill_typed_tripped_by_lint_gate () =
  let denv, core, e, report, _ =
    recovered_run ~behaviour:Fault.Ill_typed "simplify/result"
  in
  (match Pipeline.incidents report with
  | [] -> Alcotest.fail "expected a lint incident"
  | i :: _ ->
      Alcotest.(check string) "cause" "lint" (Guard.cause_name i.i_cause));
  let _ = lints ~env:denv e in
  same_result core e

let burn_fuel_tripped_by_budget () =
  let denv, core, e, report, _ =
    recovered_run ~behaviour:Fault.Burn_fuel "cse/result"
  in
  (match Pipeline.incidents report with
  | [] -> Alcotest.fail "expected a fuel incident"
  | i :: _ ->
      Alcotest.(check string) "cause" "fuel" (Guard.cause_name i.i_cause));
  let _ = lints ~env:denv e in
  same_result core e

let grow_tripped_by_size_ceiling () =
  let denv, core, e, report, _ =
    recovered_run ~behaviour:Fault.Grow "float-in/result"
  in
  (match Pipeline.incidents report with
  | [] -> Alcotest.fail "expected a size incident"
  | i :: _ ->
      Alcotest.(check string) "cause" "size" (Guard.cause_name i.i_cause));
  let _ = lints ~env:denv e in
  same_result core e

(* Rolled-back passes must not change the tree: size_after equals
   size_before on the incident's own pass record. *)
let rollback_keeps_size () =
  let _, _, _, report, _ = recovered_run "float-out/result" in
  List.iter
    (fun (p : Pipeline.pass_record) ->
      match p.incident with
      | None -> ()
      | Some _ ->
          Alcotest.(check int)
            (Fmt.str "pass %s rolled back cleanly" p.pass)
            p.size_before p.size_after)
    (Pipeline.passes report)

let strict_still_aborts () =
  let denv, core = compile src in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~policy:Guard.Strict ()
  in
  Fault.with_armed
    [ ("simplify/result", Fault.Raise) ]
    (fun () ->
      match Pipeline.run cfg core with
      | _ -> Alcotest.fail "strict mode must propagate the injected failure"
      | exception Fault.Injected p ->
          Alcotest.(check string) "the armed point raised" "simplify/result" p)

let strict_has_no_incidents () =
  let denv, core = compile src in
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv
      ~policy:Guard.Strict ()
  in
  let _, report = Pipeline.run_report cfg core in
  Alcotest.(check int) "no incidents on a healthy strict run" 0
    (List.length (Pipeline.incidents report))

(* ------------------------------------------------------------------ *)
(* Incident JSON                                                       *)
(* ------------------------------------------------------------------ *)

let roundtrips (i : Guard.incident) =
  let s = Telemetry.Json.to_string (Guard.incident_json i) in
  match Telemetry.Json.parse s with
  | Error m -> Alcotest.failf "incident JSON does not parse: %s (%s)" m s
  | Ok j -> (
      match Guard.incident_of_json j with
      | None -> Alcotest.failf "incident JSON does not decode: %s" s
      | Some i' ->
          Alcotest.(check bool)
            (Fmt.str "round-trip of %s" s)
            true (i = i'))

let incident_json_roundtrip () =
  List.iter roundtrips
    [
      {
        Guard.i_pass = "simplify (0)";
        i_cause = Guard.Exn "Stack_overflow";
        i_restored = "input";
      };
      {
        Guard.i_pass = "contify (1)";
        i_cause = Guard.Lint_failed "applying non-function of type Int";
        i_restored = "simplify (0)";
      };
      {
        Guard.i_pass = "cse (2)";
        i_cause = Guard.Fuel_exhausted { budget = 2_000_000 };
        i_restored = "contify (1)";
      };
      {
        Guard.i_pass = "float-in (0)";
        i_cause =
          Guard.Size_exploded
            { size_before = 40; size_after = 9_000; limit = 2_480 };
        i_restored = "input";
      };
    ]

(* The acceptance criterion's end-to-end form: arm a fault, run in
   Recover mode, and find the incident again by parsing the pipeline's
   own trace JSON. *)
let trace_json_carries_incidents () =
  let _, _, _, report, _ = recovered_run "spec-constr/result" in
  match Telemetry.Json.parse (Pipeline.report_to_json report) with
  | Error m -> Alcotest.failf "trace JSON does not parse: %s" m
  | Ok (Telemetry.Json.Obj fields) -> (
      (match List.assoc_opt "policy" fields with
      | Some (Telemetry.Json.Str p) ->
          Alcotest.(check string) "policy recorded" "recover" p
      | _ -> Alcotest.fail "trace JSON lacks a policy field");
      match List.assoc_opt "incidents" fields with
      | Some (Telemetry.Json.Arr (_ :: _ as is)) ->
          List.iter
            (fun j ->
              match Guard.incident_of_json j with
              | Some i ->
                  Alcotest.(check string) "cause survives" "exception"
                    (Guard.cause_name i.Guard.i_cause)
              | None -> Alcotest.fail "incident in trace does not decode")
            is
      | _ -> Alcotest.fail "trace JSON lacks a non-empty incidents array")
  | Ok _ -> Alcotest.fail "trace JSON is not an object"

(* ------------------------------------------------------------------ *)
(* The harness in isolation                                            *)
(* ------------------------------------------------------------------ *)

let protect_passes_healthy () =
  let _, core = compile "def main = 1 + 2" in
  match
    Guard.protect ~limits:Guard.default_limits ~datacons:Datacon.builtins
      ~pass:"id" ~restored:"input" ~size_before:(Syntax.size core) Fun.id core
  with
  | Ok (e, _, _) -> Alcotest.(check bool) "identity" true (e == core)
  | Error i -> Alcotest.failf "unexpected incident: %a" Guard.pp_incident i

let protect_meters_fuel () =
  let _, core = compile "def main = 1" in
  let limits = { Guard.default_limits with Guard.pass_fuel = Some 10 } in
  match
    Guard.protect ~limits ~datacons:Datacon.builtins ~pass:"spin"
      ~restored:"input" ~size_before:(Syntax.size core)
      (fun e ->
        for _ = 1 to 100 do
          Telemetry.tick Telemetry.Beta
        done;
        e)
      core
  with
  | Ok _ -> Alcotest.fail "expected the fuel gate to trip"
  | Error i ->
      Alcotest.(check string) "fuel incident" "fuel"
        (Guard.cause_name i.Guard.i_cause)

let spend_is_safe_outside_budget () =
  (* The burn-fuel fault spends fuel through the observer stream
     unconditionally; outside [protect] that must be a no-op. *)
  Telemetry.notify 1_000_000;
  Telemetry.tick Telemetry.Beta

let tests =
  [
    test "every fault point fires and recovers" every_point_recovers;
    test "incident names the failing pass" incident_names_failing_pass;
    test "lint gate catches an ill-typed result" ill_typed_tripped_by_lint_gate;
    test "fuel budget cuts off a runaway pass" burn_fuel_tripped_by_budget;
    test "size ceiling catches a size explosion" grow_tripped_by_size_ceiling;
    test "rollback restores the pre-pass tree" rollback_keeps_size;
    test "strict mode still aborts" strict_still_aborts;
    test "healthy strict run has no incidents" strict_has_no_incidents;
    test "incident JSON round-trips" incident_json_roundtrip;
    test "trace JSON carries the incidents" trace_json_carries_incidents;
    test "protect passes a healthy pass through" protect_passes_healthy;
    test "protect meters tick fuel" protect_meters_fuel;
    test "spend outside a budget is a no-op" spend_is_safe_outside_budget;
  ]
