(** Shared helpers for the test suites. *)

open Fj_core

let dc = Datacon.builtins

(** Assert that [e] lints (in the builtin datatype env unless given)
    and return its type. *)
let lints ?(env = dc) e =
  match Lint.lint_result env e with
  | Ok ty -> ty
  | Error err ->
      Alcotest.failf "expected the term to lint, got: %a@.term: %a"
        Lint.pp_error err Pretty.pp e

(** Assert that [e] does NOT lint, with exactly [message] if given. *)
let fails_lint ?(env = dc) ?message e =
  match Lint.lint_result env e with
  | Ok ty ->
      Alcotest.failf "expected a lint failure, got type %a@.term: %a" Types.pp
        ty Pretty.pp e
  | Error err ->
      Option.iter
        (fun m -> Alcotest.(check string) "message" m err.message)
        message

(** Run to a deep value tree (call-by-need). *)
let run ?(fuel = 2_000_000) e =
  match Eval.run_deep ~fuel e with
  | t, s -> (t, s)
  | exception Eval.Stuck m -> Alcotest.failf "evaluation stuck: %s" m
  | exception Eval.Out_of_fuel -> Alcotest.failf "evaluation ran out of fuel"

(** Assert both expressions evaluate to the same (deep) value. *)
let same_result ?fuel a b =
  let ta, _ = run ?fuel a in
  let tb, _ = run ?fuel b in
  if not (Eval.equal_tree ta tb) then
    Alcotest.failf "results differ: %a vs %a@.left: %a@.right: %a"
      Eval.pp_tree ta Eval.pp_tree tb Pretty.pp a Pretty.pp b

(** Assert the result tree of [e] equals the expected rendering. *)
let result_is ?fuel expected e =
  let t, _ = run ?fuel e in
  let got = Fmt.str "%a" Eval.pp_tree t in
  Alcotest.(check string) "result" expected got

(** Compile under [cfg] (a [Recover] config: {!Guard} Lints every
    pass) and fail the test on any incident, printing it. *)
let compile_clean what cfg e =
  let e', report = Pipeline.run_report cfg e in
  (match Pipeline.incidents report with
  | [] -> ()
  | i :: _ -> Alcotest.failf "%s: %a" what Guard.pp_incident i);
  e'

let tree_testable =
  Alcotest.testable Eval.pp_tree Eval.equal_tree

let ty_testable = Alcotest.testable Types.pp Types.equal

let test name f = Alcotest.test_case name `Quick f

(** [contains hay needle]: [needle] occurs in [hay] as a substring. *)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** [repo_path dir]: where [dir], a path from the repository root, is
    found. dune runs the tests in [_build/default/test] (the files are
    copied there by the deps in test/dune); running from the root works
    too. *)
let repo_path dir =
  if Sys.file_exists ("../../../" ^ dir) then "../../../" ^ dir else dir

(** [repo_files dir suffix]: the files of [dir] (see {!repo_path})
    whose names end in [suffix], sorted by name and paired with their
    contents. Fails the test when there are none, so a loop over them
    never passes having checked nothing. *)
let repo_files dir suffix =
  let path = repo_path dir in
  let files =
    if not (Sys.file_exists path) then []
    else
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f suffix)
      |> List.sort String.compare
  in
  if files = [] then Alcotest.failf "no %s files in %s" suffix dir;
  List.map (fun f -> (f, read_file (Filename.concat path f))) files

(** The 27 NoFib-shaped programs of Table 1 and fjbench, as
    [(name, source)]: each file's text, [-- expected: N] header
    included. *)
let nofib () =
  List.map
    (fun (f, src) -> (Filename.chop_suffix f ".fj", src))
    (repo_files "fjbench/corpus" ".fj")

(** Every tree a compile under [cfg] hands a pass, caught through the
    pipeline's pass hook, once each (a pass that changes nothing hands
    its input on), and the compile's output. *)
let pass_inputs cfg e =
  let inputs = ref [] in
  let cache =
    {
      Pipeline.cache_lookup =
        (fun ~pass:_ ~supply:_ ~input ->
          (match !inputs with
          | last :: _ when last == input -> ()
          | _ -> inputs := input :: !inputs);
          None);
      cache_store = (fun ~pass:_ ~supply:_ ~input:_ _ -> ());
    }
  in
  let output = Pipeline.run { cfg with Pipeline.cache = Some cache } e in
  (List.rev !inputs, output)

(** [every_pass_input check]: [check what e] on every pass input (see
    {!pass_inputs}) of a compile of each [fjbench/corpus] and
    [examples/programs] source and of Gen seeds 1-200, under each of
    the three modes, and with [~output:true] on each compile's output
    too. Each program is built, and [check] runs, under a fresh supply,
    the one its compile uses. *)
let every_pass_input ?(output = false) check =
  let sweep what build =
    List.iter
      (fun mode ->
        Context.with_fresh (fun () ->
            let datacons, e = build () in
            let cfg = Pipeline.default_config ~mode ~datacons () in
            let what = Fmt.str "%s %s" what (Pipeline.mode_name mode) in
            let inputs, out = pass_inputs cfg e in
            List.iteri (fun i e -> check (Fmt.str "%s #%d" what i) e) inputs;
            if output then check (what ^ " output") out))
      [ Pipeline.Join_points; Pipeline.Baseline; Pipeline.No_cc ]
  in
  List.iter
    (fun (name, src) -> sweep name (fun () -> Fj_surface.Prelude.compile src))
    (nofib () @ repo_files "examples/programs" ".fj");
  for seed = 1 to 200 do
    sweep (Fmt.str "seed %d" seed) (fun () ->
        (Datacon.builtins, Gen.program_of_seed seed))
  done

(** Quick alias: an optimisation preserves lint and meaning. *)
let preserves ?(env = dc) name (pass : Syntax.expr -> Syntax.expr) e =
  ignore name;
  let _ = lints ~env e in
  let e' = pass e in
  let _ = lints ~env e' in
  same_result e e'
