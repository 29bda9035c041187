(** Regression corpus replay: every retained interesting case under
    [test/corpus/] must still pass the full differential oracle
    ({!Fj_core.Fuzz.check_program}). The corpus is grown by
    [fjc fuzz --corpus-out test/corpus] — cases that extended
    optimization coverage when first seen — so replaying it pins both
    the oracle verdicts and the coverage those programs bought. *)

open Fj_core

let corpus_programs () = Util.repo_files "test/corpus" ".sexp"

let replay_corpus () =
  let cases = corpus_programs () in
  Alcotest.(check bool) "corpus present" true (List.length cases >= 10);
  let cover = Coverage.create () in
  List.iter
    (fun (name, text) ->
      let e = Sexp.read Datacon.builtins text in
      match Fuzz.check_program ~cover e with
      | Fuzz.Pass | Fuzz.Skip _ -> ()
      | Fuzz.Fail { mode; kind; detail } ->
          Alcotest.failf "%s: %s failure in %s: %s" name kind mode detail)
    cases;
  (* The whole point of retention: replaying the corpus rebuilds a
     non-trivial slice of the coverage universe deterministically. *)
  Alcotest.(check bool)
    "corpus coverage is substantial" true
    (Coverage.covered cover > 30);
  Alcotest.(check int) "in-universe" 0 (Coverage.unknown_hits cover)

let corpus_parses_deterministically () =
  (* Sexp round trip: reading and re-printing a corpus entry is
     stable, so the on-disk form is canonical. *)
  List.iter
    (fun (name, text) ->
      let e = Sexp.read Datacon.builtins text in
      let printed = Sexp.write e in
      let e' = Sexp.read Datacon.builtins printed in
      Alcotest.(check string)
        (name ^ " round trips")
        printed (Sexp.write e'))
    (corpus_programs ())

let tests =
  [
    Alcotest.test_case "replay through the oracle" `Quick replay_corpus;
    Alcotest.test_case "entries are canonical" `Quick
      corpus_parses_deterministically;
  ]
