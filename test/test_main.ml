(* The alcotest entry point: all suites. *)
let () =
  Alcotest.run "fj"
    [
      ("types", Test_types.tests);
      ("syntax", Test_syntax.tests);
      ("pretty", Test_pretty.tests);
      ("lint", Test_lint.tests);
      ("eval", Test_eval.tests);
      ("axioms", Test_axioms.tests);
      ("occur", Test_occur.tests);
      ("contify", Test_contify.tests);
      ("simplify", Test_simplify.tests);
      ("float", Test_float.tests);
      ("erase", Test_erase.tests);
      ("demote", Test_demote.tests);
      ("rules", Test_rules.tests);
      ("surface", Test_surface.tests);
      ("machine", Test_machine.tests);
      ("fusion", Test_fusion.tests);
      ("demand", Test_demand.tests);
      ("cse", Test_cse.tests);
      ("cps", Test_cps.tests);
      ("sexp", Test_sexp.tests);
      ("spec-constr", Test_spec_constr.tests);
      ("paper-examples", Test_paper_examples.tests);
      ("pipeline", Test_pipeline.tests);
      ("telemetry", Test_telemetry.tests);
      ("span", Test_span.tests);
      ("bench-diff", Test_bench_diff.tests);
      ("metrics", Test_metrics.tests);
      ("profile", Test_profile.tests);
      ("decision", Test_decision.tests);
      ("integration", Test_integration.tests);
      ("guard", Test_guard.tests);
      ("fuzz", Test_fuzz.tests);
      ("coverage", Test_coverage.tests);
      ("corpus", Test_corpus.tests);
      ("properties", Test_qcheck.tests);
      ("service", Test_service.tests);
    ]
