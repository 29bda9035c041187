(** Fault injection — see the interface for the design. *)

type behaviour = Raise | Ill_typed | Burn_fuel | Grow

let behaviour_name = function
  | Raise -> "raise"
  | Ill_typed -> "ill-typed"
  | Burn_fuel -> "burn-fuel"
  | Grow -> "grow"

let behaviour_of_string = function
  | "raise" -> Some Raise
  | "ill-typed" -> Some Ill_typed
  | "burn-fuel" -> Some Burn_fuel
  | "grow" -> Some Grow
  | _ -> None

exception Injected of string

let pass_points =
  [
    "simplify/input";
    "simplify/result";
    "contify/result";
    "cse/result";
    "float-in/result";
    "float-out/result";
    "spec-constr/result";
  ]

(* Service-layer points, triggered via {!trigger} rather than
   {!point}: the worker loop, the cache write path, and the pass
   harness's deadline all consult them to prove the crash rerun /
   quarantine / watchdog machinery has teeth. *)
let service_points = [ "service/worker"; "service/cache"; "service/slow-pass" ]
let points = pass_points @ service_points

(* Armed state: behaviour plus an optional remaining-fire budget
   ([None] = unlimited). Everything under one mutex: the compile
   service arms points before spawning workers, but [trigger]/[point]
   run concurrently on every worker domain, and a budget decrement
   must be atomic or two workers could both claim the last fire. *)
type armed_state = { a_beh : behaviour; mutable a_left : int option }

let lock = Mutex.create ()
let armed_tbl : (string, armed_state) Hashtbl.t = Hashtbl.create 11
let fired_rev : string list ref = ref []
let locked f = Mutex.protect lock f
let known name = List.mem name points

let arm ?limit name b =
  if not (known name) then
    invalid_arg
      (Fmt.str "Fault.arm: unknown point %S (known: %s)" name
         (String.concat ", " points));
  locked (fun () ->
      Hashtbl.replace armed_tbl name { a_beh = b; a_left = limit })

let disarm name = locked (fun () -> Hashtbl.remove armed_tbl name)
let disarm_all () = locked (fun () -> Hashtbl.reset armed_tbl)

let armed () =
  locked (fun () ->
      List.filter_map
        (fun p ->
          Option.map (fun s -> (p, s.a_beh)) (Hashtbl.find_opt armed_tbl p))
        points)

let fired () = locked (fun () -> List.rev !fired_rev)
let reset_fired () = locked (fun () -> fired_rev := [])

let with_armed arms f =
  let saved = armed () in
  Fun.protect
    ~finally:(fun () ->
      disarm_all ();
      List.iter (fun (p, b) -> arm p b) saved)
    (fun () ->
      disarm_all ();
      reset_fired ();
      List.iter (fun (p, b) -> arm p b) arms;
      f ())

(* [POINT:BEHAVIOUR] or [POINT:BEHAVIOUR:N] (fire at most N times,
   then auto-disarm — how a drill injects a transient fault the
   retry path must absorb, rather than a permanent one it can't). *)
let parse_spec s =
  let fail msg = Error msg in
  match String.split_on_char ':' s with
  | [ _ ] | [] ->
      fail
        (Fmt.str
           "expected POINT:BEHAVIOUR[:N] (points: %s; behaviours: raise, \
            ill-typed, burn-fuel, grow)"
           (String.concat ", " points))
  | point :: beh :: rest -> (
      match behaviour_of_string beh with
      | None -> fail (Fmt.str "unknown behaviour %S" beh)
      | Some b ->
          if not (known point) then
            fail
              (Fmt.str "unknown fault point %S (known: %s)" point
                 (String.concat ", " points))
          else (
            match rest with
            | [] -> Ok (point, b, None)
            | [ n ] -> (
                match int_of_string_opt n with
                | Some n when n > 0 -> Ok (point, b, Some n)
                | _ -> fail (Fmt.str "fire limit must be a positive int: %S" n))
            | _ -> fail "expected POINT:BEHAVIOUR[:N]"))

(* The armed-behaviour claim shared by [point] and [trigger]: consult
   the table, burn one unit of the fire budget (auto-disarming at 0),
   and record the firing. *)
let claim name =
  if not (known name) then
    invalid_arg (Fmt.str "Fault.trigger: unknown point %S" name);
  locked (fun () ->
      match Hashtbl.find_opt armed_tbl name with
      | None -> None
      | Some st ->
          (match st.a_left with
          | None -> ()
          | Some 1 -> Hashtbl.remove armed_tbl name
          | Some n -> st.a_left <- Some (n - 1));
          fired_rev := name :: !fired_rev;
          Some st.a_beh)

let trigger name = claim name

(* A characteristically ill-typed tree: applying an integer literal.
   Lint rejects it at the root, whatever [e] is. *)
let corrupt (e : Syntax.expr) : Syntax.expr =
  Syntax.App (Syntax.Lit (Literal.Int 0), e)

(* A well-typed but size-exploded tree: enough freshened copies of [e],
   bound and discarded, to exceed the default size ceiling. *)
let grow (e : Syntax.expr) : Syntax.expr =
  let size = max 1 (Syntax.size e) in
  let l = Guard.default_limits in
  let limit = (l.Guard.max_growth_factor * size) + l.Guard.max_growth_slack in
  let copies = (limit / size) + 2 in
  let ty = Syntax.ty_of e in
  let rec pile n acc =
    if n <= 0 then acc
    else
      let x = Syntax.mk_var "fault_grow" ty in
      pile (n - 1) (Syntax.Let (Syntax.NonRec (x, Subst.freshen e), acc))
  in
  pile copies e

(* How long an armed [Burn_fuel] point spins when no {!Guard} budget is
   installed to cut it off: large enough to trip any realistic budget,
   small enough to terminate promptly in bare (unguarded) runs. *)
let burn_iters = 50_000_000

let point name (e : Syntax.expr) : Syntax.expr =
  match claim name with
  | None -> e
  | Some b -> (
      match b with
      | Raise -> raise (Injected name)
      | Ill_typed -> corrupt e
      | Grow -> grow e
      | Burn_fuel ->
          for _ = 1 to burn_iters do
            Telemetry.notify 1
          done;
          e)
