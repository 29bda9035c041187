(** Tests for {!Fj_core.Span} and the Chrome trace-event export:
    nesting depth, the ring bound, annotation, exception safety, the
    duration contract shared with {!Pipeline.pass_record}, and the
    [Pipeline.perfetto_json] envelope (parses; every event carries
    ph/name/pid/tid; "X" events carry ts/dur, "C" GC counter samples
    carry word deltas; one named track per configuration; pass spans
    nest inside the root compile span with durations consistent with
    the per-pass wall-clock fields), plus the folded flamegraph
    export (every span exactly once; exclusive weights sum to the
    root's total; deterministic; allocation weighting). *)

open Fj_core
open Util

let json_obj = function
  | Telemetry.Json.Obj fields -> fields
  | j -> Alcotest.failf "expected an object, got %s" (Telemetry.Json.to_string j)

let field name j =
  match List.assoc_opt name (json_obj j) with
  | Some v -> v
  | None ->
      Alcotest.failf "missing field %S in %s" name (Telemetry.Json.to_string j)

let int_field name j =
  match field name j with
  | Telemetry.Json.Int n -> n
  | v -> Alcotest.failf "field %S not an int: %s" name (Telemetry.Json.to_string v)

let str_field name j =
  match field name j with
  | Telemetry.Json.Str s -> s
  | v -> Alcotest.failf "field %S not a string: %s" name (Telemetry.Json.to_string v)

(* ------------------------------------------------------------------ *)
(* The collector itself                                                *)
(* ------------------------------------------------------------------ *)

let nesting_and_depth () =
  let c = Span.create () in
  Span.with_collector c (fun () ->
      Span.with_span ~cat:"outer" "a" (fun () ->
          Span.with_span ~cat:"inner" "b" (fun () -> ());
          Span.with_span ~cat:"inner" "c" (fun () -> ())));
  match Span.spans c with
  | [ b; c'; a ] ->
      (* Children complete before their parents. *)
      Alcotest.(check string) "first completed" "b" b.Span.sp_name;
      Alcotest.(check string) "second completed" "c" c'.Span.sp_name;
      Alcotest.(check string) "root completes last" "a" a.Span.sp_name;
      Alcotest.(check int) "root depth" 0 a.Span.sp_depth;
      Alcotest.(check int) "child depth" 1 b.Span.sp_depth;
      Alcotest.(check string) "category kept" "outer" a.Span.sp_cat;
      (* Children are contained in the parent's interval. *)
      let inside (ch : Span.span) (p : Span.span) =
        ch.sp_start_ms >= p.sp_start_ms
        && ch.sp_start_ms +. ch.sp_dur_ms <= p.sp_start_ms +. p.sp_dur_ms +. 1e-6
      in
      Alcotest.(check bool) "b inside a" true (inside b a);
      Alcotest.(check bool) "c inside a" true (inside c' a)
  | ss -> Alcotest.failf "expected 3 spans, got %d" (List.length ss)

let no_collector_is_noop () =
  (* Publishing without an installed collector must be safe (and is
     the fast path for the machines). *)
  Span.with_span "orphan" (fun () -> Span.annotate "k" Telemetry.Json.Null);
  let v, d = Span.with_span_timed "orphan" (fun () -> 42) in
  Alcotest.(check int) "body result" 42 v;
  Alcotest.(check bool) "duration non-negative" true (d >= 0.0)

let ring_bound_drops_oldest () =
  let c = Span.create ~cap:3 () in
  Span.with_collector c (fun () ->
      for i = 1 to 10 do
        Span.with_span (Fmt.str "s%d" i) (fun () -> ())
      done);
  let names = List.map (fun s -> s.Span.sp_name) (Span.spans c) in
  Alcotest.(check (list string)) "most recent retained" [ "s8"; "s9"; "s10" ]
    names;
  Alcotest.(check int) "evictions counted" 7 (Span.dropped c)

let annotations_recorded () =
  let c = Span.create () in
  Span.with_collector c (fun () ->
      Span.with_span "work" (fun () ->
          Span.annotate "steps" (Telemetry.Json.Int 17);
          Span.annotate "steps" (Telemetry.Json.Int 18)));
  match Span.spans c with
  | [ s ] ->
      Alcotest.(check int) "later value wins" 18
        (match List.assoc "steps" s.Span.sp_args with
        | Telemetry.Json.Int n -> n
        | _ -> -1)
  | _ -> Alcotest.fail "expected one span"

let exception_still_records () =
  let c = Span.create () in
  (try
     Span.with_collector c (fun () ->
         Span.with_span "boom" (fun () -> failwith "bang"))
   with Failure _ -> ());
  match Span.spans c with
  | [ s ] ->
      Alcotest.(check string) "span recorded" "boom" s.Span.sp_name;
      Alcotest.(check bool) "marked raised" true
        (List.mem_assoc "raised" s.Span.sp_args)
  | ss -> Alcotest.failf "expected 1 span, got %d" (List.length ss)

let timed_matches_span () =
  let c = Span.create () in
  let (), d =
    Span.with_collector c (fun () ->
        Span.with_span_timed "t" (fun () -> Sys.opaque_identity (ignore [ 1 ])))
  in
  match Span.spans c with
  | [ s ] ->
      (* The contract Pipeline relies on: the returned duration IS the
         recorded span's duration, not a third clock read. *)
      Alcotest.(check (float 0.0)) "identical duration" s.Span.sp_dur_ms d
  | _ -> Alcotest.fail "expected one span"

let trace_event_fields () =
  let c = Span.create () in
  Span.with_collector c (fun () ->
      Span.with_span ~cat:"pass" "p" (fun () ->
          Span.annotate "size" (Telemetry.Json.Int 3)));
  match Span.trace_events ~pid:9 ~tid:4 c with
  | [ ev ] ->
      Alcotest.(check string) "ph" "X" (str_field "ph" ev);
      Alcotest.(check string) "name" "p" (str_field "name" ev);
      Alcotest.(check string) "cat" "pass" (str_field "cat" ev);
      Alcotest.(check int) "pid" 9 (int_field "pid" ev);
      Alcotest.(check int) "tid" 4 (int_field "tid" ev);
      Alcotest.(check bool) "ts integer µs" true (int_field "ts" ev >= 0);
      Alcotest.(check bool) "dur integer µs" true (int_field "dur" ev >= 0);
      Alcotest.(check int) "args carried" 3 (int_field "size" (field "args" ev))
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* The pipeline's Perfetto export                                      *)
(* ------------------------------------------------------------------ *)

let cc_src =
  {|
def main =
  let rec go i acc =
    if i > 50 then acc
    else if odd i then go (i + 1) (acc + i)
    else go (i + 1) acc
  in go 1 0
|}

let report_for mode =
  let denv, core = Fj_surface.Prelude.compile cc_src in
  let cfg =
    Pipeline.default_config ~mode ~datacons:denv ~inline_threshold:300 ()
  in
  snd (Pipeline.run_report cfg core)

let all_modes = [ Pipeline.Baseline; Pipeline.Join_points; Pipeline.No_cc ]

let perfetto_structure () =
  let reports = List.map report_for all_modes in
  let json = Pipeline.perfetto_json ~file:"test.fj" reports in
  let text = Telemetry.Json.to_string json in
  Alcotest.(check bool) "well-formed JSON" true
    (Telemetry.Json.is_well_formed text);
  let events =
    match field "traceEvents" json with
    | Telemetry.Json.Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  (* Every event has ph/name/pid/tid; complete events have ts+dur. *)
  List.iter
    (fun ev ->
      let ph = str_field "ph" ev in
      ignore (str_field "name" ev);
      ignore (int_field "pid" ev);
      ignore (int_field "tid" ev);
      if ph = "X" then (
        Alcotest.(check bool) "ts >= 0" true (int_field "ts" ev >= 0);
        Alcotest.(check bool) "dur >= 0" true (int_field "dur" ev >= 0))
      else if ph = "C" then
        (* GC counter samples: one per pass boundary, with the word
           deltas under args. *)
        List.iter
          (fun k -> ignore (int_field k (field "args" ev)))
          [ "minor"; "major"; "promoted" ]
      else Alcotest.(check string) "only X/M/C events" "M" ph)
    events;
  (* The GC counter track exists: one sample per pass span. *)
  let counter_count =
    List.length (List.filter (fun ev -> str_field "ph" ev = "C") events)
  in
  let pass_span_count =
    List.fold_left
      (fun acc r ->
        acc
        + List.length
            (List.filter
               (fun (s : Span.span) -> s.Span.sp_cat = "pass")
               (Pipeline.spans r)))
      0 reports
  in
  Alcotest.(check int) "one GC counter sample per pass span"
    pass_span_count counter_count;
  (* One named track per configuration. *)
  let thread_names =
    List.filter_map
      (fun ev ->
        if str_field "ph" ev = "M" && str_field "name" ev = "thread_name" then
          Some (str_field "name" (field "args" ev), int_field "tid" ev)
        else None)
      events
  in
  List.iter
    (fun mode ->
      let mname = Pipeline.mode_name mode in
      Alcotest.(check bool)
        (Fmt.str "track for %s" mname)
        true
        (List.mem_assoc mname thread_names))
    all_modes;
  let tids = List.sort_uniq compare (List.map snd thread_names) in
  Alcotest.(check int) "three distinct tids" 3 (List.length tids);
  (* Histogram summaries folded into the envelope. *)
  let other = field "otherData" json in
  Alcotest.(check string) "file recorded" "test.fj" (str_field "file" other);
  let metrics = json_obj (field "metrics" other) in
  List.iter
    (fun mode ->
      let mname = Pipeline.mode_name mode in
      match List.assoc_opt mname metrics with
      | Some m ->
          let hs = json_obj (field "histograms" m) in
          Alcotest.(check bool)
            (Fmt.str "%s has pass.duration_ms histogram" mname)
            true
            (List.mem_assoc "pass.duration_ms" hs);
          let summary = List.assoc "pass.duration_ms" hs in
          List.iter
            (fun k -> ignore (field k summary))
            [ "count"; "sum"; "min"; "max"; "p50"; "p95" ]
      | None -> Alcotest.failf "no metrics for %s" mname)
    all_modes

let perfetto_durations_match_pass_records () =
  let r = report_for Pipeline.Join_points in
  let root, children =
    match
      List.partition (fun s -> s.Span.sp_depth = 0) (Pipeline.spans r)
    with
    | [ root ], rest -> (root, rest)
    | roots, _ ->
        Alcotest.failf "expected exactly one root span, got %d"
          (List.length roots)
  in
  Alcotest.(check string) "root is the compile span" "compile"
    root.Span.sp_name;
  (* Every child lies inside the compile interval. *)
  List.iter
    (fun (s : Span.span) ->
      Alcotest.(check bool)
        (Fmt.str "%s nested in compile" s.sp_name)
        true
        (s.sp_start_ms >= root.sp_start_ms
        && s.sp_start_ms +. s.sp_dur_ms
           <= root.sp_start_ms +. root.sp_dur_ms +. 1e-6))
    children;
  (* Each pass record's wall clock IS its span's duration. The one
     exception is the rules pass, whose record is renamed after the
     fact; this config runs no rewrite rules, so it never appears. *)
  let pass_spans =
    List.filter (fun (s : Span.span) -> s.sp_cat = "pass") children
  in
  List.iter
    (fun (p : Pipeline.pass_record) ->
      match
        List.find_opt (fun (s : Span.span) -> s.sp_name = p.pass) pass_spans
      with
      | Some s ->
          Alcotest.(check (float 1e-9))
            (Fmt.str "span dur = pass record %s" p.pass)
            p.duration_ms s.sp_dur_ms
      | None -> Alcotest.failf "no span for pass %s" p.pass)
    (Pipeline.passes r);
  (* And the compile span covers the sum of its (disjoint) passes. *)
  let summed =
    List.fold_left (fun acc (s : Span.span) -> acc +. s.sp_dur_ms) 0.0
      pass_spans
  in
  Alcotest.(check bool) "pass spans fit in the compile span" true
    (summed <= root.sp_dur_ms +. 1e-6)

let report_json_carries_spans_and_metrics () =
  let r = report_for Pipeline.Join_points in
  let json = Pipeline.report_to_json r in
  match Telemetry.Json.parse json with
  | Ok obj ->
      (match field "spans" obj with
      | Telemetry.Json.Arr (_ :: _) -> ()
      | _ -> Alcotest.fail "spans array empty or missing");
      ignore (field "histograms" (field "metrics" obj));
      (* GC accounting rides in the trace JSON: whole-run totals plus
         per-pass deltas and tree-shape stats. *)
      ignore (int_field "minor_words" (field "total_gc" obj));
      (match field "passes" obj with
      | Telemetry.Json.Arr (p :: _) ->
          ignore (int_field "minor_words" (field "gc" p));
          let shape = field "shape_after" p in
          Alcotest.(check bool) "nodes positive" true
            (int_field "nodes" shape > 0);
          Alcotest.(check bool) "depth positive" true
            (int_field "depth" shape > 0);
          Alcotest.(check bool) "heap words >= nodes" true
            (int_field "heap_words" shape >= int_field "nodes" shape)
      | _ -> Alcotest.fail "passes array empty or missing")
  | Error m -> Alcotest.failf "report JSON does not parse: %s" m

(* ------------------------------------------------------------------ *)
(* GC accounting                                                       *)
(* ------------------------------------------------------------------ *)

let with_span_stats_measures_allocation () =
  let c = Span.create () in
  let (), _, gc =
    Span.with_collector c (fun () ->
        Span.with_span_stats "alloc" (fun () ->
            ignore (Sys.opaque_identity (Array.make 1000 0.0))))
  in
  (* A 1000-element float array is ~1001 words; anything smaller means
     the delta missed the allocation. *)
  Alcotest.(check bool) "allocation observed" true
    (Gcstats.alloc_words gc >= 1000.0);
  (match Span.spans c with
  | [ s ] ->
      Alcotest.(check (float 0.0)) "span gc = returned gc"
        (Gcstats.alloc_words gc)
        (Gcstats.alloc_words s.Span.sp_gc)
  | _ -> Alcotest.fail "expected one span");
  (* And without a collector the stats still measure. *)
  let (), _, gc' =
    Span.with_span_stats "orphan" (fun () ->
        ignore (Sys.opaque_identity (Array.make 1000 0.0)))
  in
  Alcotest.(check bool) "measures without collector" true
    (Gcstats.alloc_words gc' >= 1000.0)

let pass_records_carry_gc_and_shape () =
  let r = report_for Pipeline.Join_points in
  let ps = Pipeline.passes r in
  Alcotest.(check bool) "has passes" true (ps <> []);
  List.iter
    (fun (p : Pipeline.pass_record) ->
      Alcotest.(check bool)
        (Fmt.str "%s gc non-negative" p.pass)
        true
        (Gcstats.alloc_words p.gc >= 0.0);
      Alcotest.(check bool)
        (Fmt.str "%s shape sane" p.pass)
        true
        (p.shape_after.Syntax.m_nodes > 0
        && p.shape_after.Syntax.m_depth > 0
        && p.shape_after.Syntax.m_heap_words >= p.shape_after.Syntax.m_nodes))
    ps;
  (* The optimizer does real work: someone allocated. *)
  Alcotest.(check bool) "some pass allocates" true
    (List.exists (fun (p : Pipeline.pass_record) ->
         Gcstats.alloc_words p.gc > 0.0)
       ps);
  (* Pass deltas are slices of the same monotonic counters the run
     total is a delta of, so the total dominates their sum. *)
  let summed =
    List.fold_left
      (fun acc (p : Pipeline.pass_record) -> Gcstats.add acc p.gc)
      Gcstats.zero ps
  in
  Alcotest.(check bool) "total >= sum of passes" true
    (Gcstats.alloc_words (Pipeline.total_gc r)
    >= Gcstats.alloc_words summed -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Folded (collapsed-stack) export                                     *)
(* ------------------------------------------------------------------ *)

let folded_structure_and_weights () =
  let c = Span.create () in
  Span.with_collector c (fun () ->
      Span.with_span ~cat:"root cat" "main loop" (fun () ->
          Span.with_span ~cat:"pass" "x" (fun () ->
              ignore (Sys.opaque_identity (List.init 100 Fun.id)));
          Span.with_span ~cat:"pass" "x" (fun () -> ());
          Span.with_span ~cat:"guard" "lint check" (fun () -> ())));
  let stacks = Span.folded_stacks c in
  (* Root keeps its bare (sanitized) name; nested frames are cat:name;
     duplicate stacks merge: 5 spans, 3 distinct stacks. *)
  Alcotest.(check (list string))
    "stacks, sorted and sanitized"
    [ "main_loop"; "main_loop;guard:lint_check"; "main_loop;pass:x" ]
    (List.map fst stacks);
  List.iter
    (fun (s, w) ->
      Alcotest.(check bool) (Fmt.str "%s weight non-negative" s) true (w >= 0))
    stacks;
  (* Exclusive weights partition the root: their sum is the root
     span's own total, up to one rounded microsecond per span. *)
  let root_us =
    match List.find (fun s -> s.Span.sp_depth = 0) (Span.spans c) with
    | s -> Span.us s.Span.sp_dur_ms
  in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 stacks in
  Alcotest.(check bool)
    (Fmt.str "weights sum to root total (%d vs %d)" total root_us)
    true
    (abs (total - root_us) <= List.length (Span.spans c));
  (* Deterministic: a second export is identical. *)
  Alcotest.(check bool) "deterministic" true (stacks = Span.folded_stacks c);
  (* The rendered text is one "stack weight" line per entry. *)
  let lines = String.split_on_char '\n' (Span.folded c) in
  Alcotest.(check int) "one line per stack" (List.length stacks)
    (List.length lines);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "unparseable folded line: %s" line
      | Some i ->
          let w = String.sub line (i + 1) (String.length line - i - 1) in
          (match int_of_string_opt w with
          | Some _ -> ()
          | None -> Alcotest.failf "non-integer weight in: %s" line);
          Alcotest.(check bool) "no spaces in stack" true
            (not
               (String.contains
                  (String.sub line 0 i)
                  ' ')))
    lines

let folded_alloc_weight () =
  let c = Span.create () in
  Span.with_collector c (fun () ->
      Span.with_span ~cat:"r" "root" (fun () ->
          Span.with_span ~cat:"p" "hog" (fun () ->
              ignore (Sys.opaque_identity (Array.make 5000 0.0)));
          Span.with_span ~cat:"p" "lean" (fun () -> ())));
  let stacks = Span.folded_stacks ~weight:Span.Alloc_words c in
  let weight name =
    match List.assoc_opt name stacks with
    | Some w -> w
    | None -> Alcotest.failf "missing stack %s" name
  in
  (* Exclusive words: the hog's 5000-word array lands on the hog's
     frame, not the root's. *)
  Alcotest.(check bool) "hog heavy" true (weight "root;p:hog" >= 5000);
  Alcotest.(check bool) "hog dominates root self" true
    (weight "root;p:hog" > weight "root")

let pipeline_folded_covers_compile () =
  let r = report_for Pipeline.Join_points in
  let stacks = Pipeline.folded_stacks r in
  Alcotest.(check bool) "has stacks" true (stacks <> []);
  List.iter
    (fun (s, _) ->
      Alcotest.(check bool)
        (Fmt.str "%s rooted at compile" s)
        true
        (s = "compile" || String.length s > 8 && String.sub s 0 8 = "compile;"))
    stacks;
  (* Every pass span surfaces as a frame. *)
  List.iter
    (fun (p : Pipeline.pass_record) ->
      let frame =
        "compile;pass:"
        ^ String.map (function ' ' -> '_' | c -> c) p.pass
      in
      Alcotest.(check bool) (Fmt.str "stack for %s" p.pass) true
        (List.mem_assoc frame stacks))
    (Pipeline.passes r);
  let root_us =
    match
      List.find (fun s -> s.Span.sp_depth = 0) (Pipeline.spans r)
    with
    | s -> Span.us s.Span.sp_dur_ms
  in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 stacks in
  Alcotest.(check bool)
    (Fmt.str "weights sum to compile total (%d vs %d)" total root_us)
    true
    (abs (total - root_us) <= List.length (Pipeline.spans r))

(* With no collector, nothing keeps a GC delta, so [with_span_timed]
   takes no snapshot: each snapshot's [Gc.quick_stat] allocates a
   whole stat record, and [Eval] runs outside a compile pay for it. *)
let no_collector_takes_no_snapshot () =
  let noop () = () in
  ignore (Span.with_span_timed "warm" noop);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Span.with_span_timed "noop" noop));
  let w = Gc.minor_words () -. before in
  if w >= 20. then
    Alcotest.failf "with_span_timed around a no-op allocated %.0f words" w

let tests =
  [
    test "nesting, depth, completion order" nesting_and_depth;
    test "no installed collector is a safe no-op" no_collector_is_noop;
    test "ring bound retains the most recent spans" ring_bound_drops_oldest;
    test "annotations attach to the open span" annotations_recorded;
    test "a raising body still records its span" exception_still_records;
    test "with_span_timed returns the recorded duration" timed_matches_span;
    test "trace events carry ph/ts/dur/name/pid/tid" trace_event_fields;
    test "perfetto export: tracks, fields, histograms" perfetto_structure;
    test "pass spans nest and match per-pass wall clock"
      perfetto_durations_match_pass_records;
    test "report JSON carries spans and metrics" report_json_carries_spans_and_metrics;
    test "with_span_stats measures allocation" with_span_stats_measures_allocation;
    test "pass records carry GC deltas and tree shape"
      pass_records_carry_gc_and_shape;
    test "folded export: structure, weights, determinism"
      folded_structure_and_weights;
    test "folded export: allocation weighting" folded_alloc_weight;
    test "pipeline folded stacks cover the compile" pipeline_folded_covers_compile;
    test "no collector: with_span_timed takes no GC snapshot"
      no_collector_takes_no_snapshot;
  ]
