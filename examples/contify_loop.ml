(** Walkthrough of Sec. 4: contification, staged exactly as the paper's
    comparison with Moby's local CPS conversion —

    {v
    let f x = rhs in case (f y) of alts
      --(Float In)-->   case (let f x = rhs in f y) of alts
      --(contify)-->    case (join f x = rhs in jump f y) of alts
      --(jfloat/abort, in the Simplifier)-->
                        join f x = case rhs of alts in jump f y
    v}

    Run with: [dune exec examples/contify_loop.exe] *)

open Fj_core
module B = Builder

let show title e =
  Fmt.pr "@.---- %s ----@.%a@." title Pretty.pp e;
  match Lint.lint_result Datacon.builtins e with
  | Ok _ -> ()
  | Error err -> Fmt.pr "LINT ERROR: %a@." Lint.pp_error err

let () =
  (* let f x = x + 100 in case (f 1) of { _DEFAULT -> ... } with the
     call under an evaluation context E = case [] of alts. *)
  let e0 =
    B.let_ "f"
      (B.lam "x" Types.int (fun x -> B.add x (B.int 100)))
      (fun f ->
        B.case
          (Syntax.App (f, B.int 1))
          [
            B.alt_lit (Literal.Int 101) B.true_;
            B.alt_default B.false_;
          ])
  in
  show "input: call under an intervening context E" e0;

  (* Stage 1: Float In narrows f's scope into the scrutinee — now every
     call to f is a tail call OF ITS SCOPE. *)
  let ticks = Telemetry.create () in
  let e1 = Telemetry.with_counters ticks (fun () -> Float_in.run e0) in
  assert (Telemetry.get ticks Telemetry.Float_in_moved > 0);
  show "after Float In (float axiom, right to left)" e1;

  (* Stage 2: contify — f becomes a join point, the call a jump. *)
  let e2, _ = Contify.contify e1 in
  show "after contification (Fig. 5)" e2;

  (* Stage 3: the simplifier's jfloat pushes E into the join's rhs, and
     abort discards it at the jump. *)
  let e3 =
    Simplify.simplify
      (Simplify.default_config ~inline_threshold:0 ~dup_threshold:0 ())
      e2
  in
  show "after the Simplifier (jfloat + abort)" e3;

  (* Recursive contification: the paper's find/go loop. *)
  Fmt.pr "@.==== recursive join points (Sec. 5 find) ====@.";
  let denv, core =
    Fj_surface.Prelude.compile
      {|
def main =
  let rec go n acc = if n <= 0 then acc else go (n - 1) (acc + n)
  in go 100 0
|}
  in
  Fmt.pr "@.surface elaborates to:@.%a@." Pretty.pp core;
  let cfg =
    Pipeline.default_config ~mode:Pipeline.Join_points ~datacons:denv ()
  in
  let opt, report = Pipeline.run_report cfg core in
  show "after the pipeline: a recursive join point, zero allocation" opt;
  let t, s = Eval.run_deep opt in
  Fmt.pr "@.result = %a   (%a)@." Eval.pp_tree t Eval.pp_stats s;
  Fmt.pr "contified bindings this run: %d@." (Pipeline.contified report)
