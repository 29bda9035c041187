(** Property-based tests: a generator of random {e well-typed} F_J
    terms (including join points and jumps), over which we check the
    paper's metatheory:

    - the generator only produces Lint-clean terms;
    - type safety (Prop. 1): evaluation never gets stuck;
    - call-by-name and call-by-need agree;
    - every optimisation pass — simplifier (both configurations),
      contification, Float In/Out, the full pipelines — preserves
      typing and observable results (Prop. 3);
    - erasure produces an equivalent join-free System F term (Thm. 5);
    - lowering to the block machine agrees with the evaluator. *)

open Fj_core
open Syntax

let dc = Datacon.builtins

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

(* The well-typed term generator grew out of this file and now lives
   in the library ({!Fj_core.Gen}), shared with the [fjc fuzz]
   differential harness. QCheck's [Gen.t] is [Random.State.t -> 'a],
   so the library's direct-style generator plugs straight in. *)
let gen_program : expr QCheck.Gen.t = fun st -> Gen.program st

let arb_program =
  QCheck.make ~print:(fun e -> Pretty.to_string e) gen_program


(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let fuel = 200_000

let eval_tree e =
  match Eval.run_deep ~fuel e with
  | t, _ -> `Value t
  | exception Eval.Out_of_fuel -> `Timeout
  | exception Eval.Stuck m -> `Stuck m

let prop_count = 300

let prop name f = QCheck.Test.make ~count:prop_count ~name arb_program f

let generator_produces_well_typed =
  prop "generated terms lint" (fun e -> Lint.well_typed dc e)

let type_safety =
  prop "type safety: evaluation never sticks (Prop. 1)" (fun e ->
      match eval_tree e with
      | `Value _ | `Timeout -> true
      | `Stuck m -> QCheck.Test.fail_reportf "stuck: %s" m)

let name_need_agree =
  prop "call-by-name and call-by-need agree" (fun e ->
      let need = eval_tree e in
      let name =
        match Eval.eval ~mode:Eval.By_name ~fuel e with
        | v, _ -> (
            match Eval.force_deep ~fuel v with
            | t -> `Value t
            | exception Eval.Out_of_fuel -> `Timeout)
        | exception Eval.Out_of_fuel -> `Timeout
        | exception Eval.Stuck m -> `Stuck m
      in
      match (need, name) with
      | `Value a, `Value b -> Eval.equal_tree a b
      | `Timeout, _ | _, `Timeout -> QCheck.assume_fail ()
      | _ -> false)

let pass_preserves pass_name pass =
  prop
    (pass_name ^ " preserves typing and meaning (Prop. 3)")
    (fun e ->
      let e' = pass e in
      if not (Lint.well_typed dc e') then
        QCheck.Test.fail_reportf "result does not lint:@.%a" Pretty.pp e'
      else
        match (eval_tree e, eval_tree e') with
        | `Value a, `Value b ->
            Eval.equal_tree a b
            || QCheck.Test.fail_reportf "results differ: %a vs %a@.after:@.%a"
                 Eval.pp_tree a Eval.pp_tree b Pretty.pp e'
        | `Timeout, _ | _, `Timeout -> QCheck.assume_fail ()
        | `Stuck m, _ | _, `Stuck m ->
            QCheck.Test.fail_reportf "stuck: %s" m)

let simplify_preserves =
  pass_preserves "simplify (join points)"
    (Simplify.simplify (Simplify.default_config ()))

let simplify_baseline_preserves =
  pass_preserves "simplify (baseline)"
    (fun e ->
      Simplify.simplify (Simplify.default_config ~join_points:false ())
        (Erase.erase e))

let contify_preserves = pass_preserves "contify" (fun e -> fst (Contify.contify e))

let float_in_preserves =
  pass_preserves "float-in" Float_in.run

let float_out_preserves =
  pass_preserves "float-out" Float_out.run

let cleanup_preserves =
  pass_preserves "cleanup (jinline/jdrop)" (fun e -> fst (Cleanup.cleanup e))

let strictify_preserves = pass_preserves "demand strictify" Demand.strictify

let sexp_roundtrip =
  prop "serialisation round trips exactly" (fun e ->
      let e' = Sexp.read dc (Sexp.write e) in
      String.equal (Pretty.to_string e) (Pretty.to_string e'))

let cps_preserves =
  prop "CPS transform preserves meaning on the monomorphic fragment"
    (fun e ->
      (* Generated terms are monomorphic and join-ful: erase first.
         CPS evaluation is call-by-value; generated terms are total, so
         results agree (timeouts discarded). *)
      match Cps.transform (Erase.erase e) with
      | exception Cps.Unsupported _ -> QCheck.assume_fail ()
      | e' ->
          if not (Lint.well_typed dc e') then
            QCheck.Test.fail_reportf "CPS output does not lint:@.%a" Pretty.pp
              e'
          else (
            match (eval_tree e, eval_tree e') with
            | `Value a, `Value b -> Eval.equal_tree a b
            | `Timeout, _ | _, `Timeout -> QCheck.assume_fail ()
            | `Stuck m, _ | _, `Stuck m ->
                QCheck.Test.fail_reportf "stuck: %s" m))

let freshen_preserves = pass_preserves "freshen" Subst.freshen

let cnf_preserves =
  pass_preserves "commuting-normal form" Erase.commuting_normal_form

let pipeline_preserves mode =
  pass_preserves
    ("pipeline " ^ Pipeline.mode_name mode)
    (fun e ->
      let e = if mode = Pipeline.Join_points then e else Erase.erase e in
      Pipeline.run (Pipeline.default_config ~mode ()) e)

let erase_theorem =
  prop "erasure: equivalent join-free System F term (Thm. 5)" (fun e ->
      let e' = Erase.erase e in
      if not (Erase.is_join_free e') then
        QCheck.Test.fail_reportf "joins remain:@.%a" Pretty.pp e'
      else if not (Lint.well_typed dc e') then
        QCheck.Test.fail_reportf "erased term does not lint:@.%a" Pretty.pp e'
      else
        match (eval_tree e, eval_tree e') with
        | `Value a, `Value b -> Eval.equal_tree a b
        | `Timeout, _ | _, `Timeout -> QCheck.assume_fail ()
        | _ -> false)

let erase_type_preserved =
  prop "erasure preserves the type" (fun e ->
      match (Lint.lint_result dc e, Lint.lint_result dc (Erase.erase e)) with
      | Ok t1, Ok t2 -> Types.equal t1 t2
      | _ -> false)

let machine_agrees =
  prop "block machine agrees with the evaluator" (fun e ->
      (* The machine is call-by-value: evaluate strictly; compare only
         when the lazy evaluator also produced a value and the strict
         machine terminates. Disagreement on termination alone is
         allowed (strictness); disagreement on VALUES is a bug. *)
      match eval_tree e with
      | `Timeout | `Stuck _ -> QCheck.assume_fail ()
      | `Value a -> (
          let prog = Fj_machine.Lower.lower_program e in
          match Fj_machine.Bmachine.run ~fuel prog with
          | v, _ ->
              let b = Fj_machine.Bmachine.tree_of_value v in
              Eval.equal_tree a b
              || QCheck.Test.fail_reportf "machine: %a, evaluator: %a"
                   Eval.pp_tree b Eval.pp_tree a
          | exception Fj_machine.Bmachine.Out_of_fuel -> QCheck.assume_fail ()
          | exception Fj_machine.Bmachine.Stuck m ->
              QCheck.Test.fail_reportf "machine stuck: %s" m))

let occurrence_analysis_sound =
  prop "dead per Occur implies really dead" (fun e ->
      (* If the analysis says a let binder is dead, dropping the
         binding must preserve meaning. Checked via the Cleanup pass on
         a wrapper; here we validate on the root only. *)
      match e with
      | Let (NonRec (x, _), body) ->
          let usage = Occur.of_expr body in
          if Occur.is_dead usage x then not (occurs x.v_name body) else true
      | _ -> true)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      generator_produces_well_typed;
      type_safety;
      name_need_agree;
      simplify_preserves;
      simplify_baseline_preserves;
      contify_preserves;
      float_in_preserves;
      float_out_preserves;
      cleanup_preserves;
      strictify_preserves;
      sexp_roundtrip;
      cps_preserves;
      freshen_preserves;
      cnf_preserves;
      pipeline_preserves Pipeline.Baseline;
      pipeline_preserves Pipeline.Join_points;
      pipeline_preserves Pipeline.No_cc;
      erase_theorem;
      erase_type_preserved;
      machine_agrees;
      occurrence_analysis_sound;
    ]
