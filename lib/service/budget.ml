(* Per-request budgets. See budget.mli. *)

open Fj_core

type spec = { wall_ms : float option; fuel : int option }

let default_spec =
  { wall_ms = None; fuel = Guard.default_limits.Guard.pass_fuel }

let limits s = { Guard.default_limits with Guard.pass_fuel = s.fuel }

exception Deadline_exceeded of { wall_ms : float }

type t = {
  spec : spec;
  deadline : float option;  (* absolute, Telemetry.now_ms clock *)
  mutable credit : int;  (* ticks until the next clock read *)
}

(* Reading the monotonic clock on every tick would double the cost of
   the hottest counter in the optimizer; once per [interval] ticks
   still bounds the overshoot to a handful of rewrites. *)
let interval = 64

let start spec =
  {
    spec;
    deadline = Option.map (fun w -> Telemetry.now_ms () +. w) spec.wall_ms;
    credit = interval;
  }

let expired b =
  match b.deadline with
  | None -> false
  | Some d -> Telemetry.now_ms () > d

let check b =
  if expired b then
    raise (Deadline_exceeded { wall_ms = Option.get b.spec.wall_ms })

let with_watchdog b f =
  match b.deadline with
  | None -> f ()
  | Some _ ->
      Telemetry.with_observer
        (fun n ->
          b.credit <- b.credit - n;
          if b.credit <= 0 then begin
            b.credit <- interval;
            check b
          end)
        f

let burn ?(cap_ms = 500.0) b =
  let until =
    match b.deadline with
    | Some d -> Float.min d (Telemetry.now_ms () +. cap_ms)
    | None -> Telemetry.now_ms () +. cap_ms
  in
  while Telemetry.now_ms () <= until do
    Unix.sleepf 0.005
  done
