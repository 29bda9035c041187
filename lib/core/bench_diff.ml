(** Diff of two [fj-bench/1] trajectory files — see the interface for
    the metric-kind design. *)

type kind = Count | Points | Timing | Info

type metric = {
  m_metric : string;
  m_kind : kind;
  m_old : float;
  m_new : float;
  m_delta : float;
  m_delta_pct : float option;
  m_noise : float option;
  m_regressed : bool;
}

type prog = { p_name : string; p_suite : string; p_metrics : metric list }

type t = {
  d_old : string;
  d_new : string;
  d_gate_pct : float option;
  d_gate_timing : bool;
  d_programs : prog list;
  d_only_old : string list;
  d_only_new : string list;
  d_file_metrics : metric list;
}

let kind_name = function
  | Count -> "count"
  | Points -> "points"
  | Timing -> "timing"
  | Info -> "info"

(* ------------------------------------------------------------------ *)
(* JSON spelunking                                                     *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Telemetry.Json.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* Dotted path into nested objects: ["timing.base_eval_ms_median"]. *)
let path p j =
  List.fold_left
    (fun acc name -> Option.bind acc (field name))
    (Some j)
    (String.split_on_char '.' p)

let num = function
  | Some (Telemetry.Json.Int n) -> Some (float_of_int n)
  | Some (Telemetry.Json.Float f) -> Some f
  | _ -> None

let str = function Some (Telemetry.Json.Str s) -> Some s | _ -> None

let arr = function Some (Telemetry.Json.Arr l) -> l | _ -> []

(* ------------------------------------------------------------------ *)
(* Gating                                                              *)
(* ------------------------------------------------------------------ *)

(* Every compared metric is lower-is-better (allocation, steps, time,
   the Table-1 delta_pct); Info metrics have no polarity at all.
   Timing only participates when explicitly asked ([gate_timing]):
   counts and delta_pct are machine-independent, but wall-clock
   medians from two different machines (a committed baseline vs a CI
   runner) differ for reasons no same-run noise band can absorb. *)
let gated (gate_pct, gate_timing) (m : metric) =
  match (gate_pct, m.m_kind) with
  | None, _ | _, Info -> false
  | Some gate, Count -> (
      match m.m_delta_pct with Some pct -> pct > gate | None -> m.m_delta > 0.0)
  | Some gate, Points -> m.m_delta > gate
  | Some gate, Timing ->
      gate_timing
      &&
      let noise = Option.value ~default:0.0 m.m_noise in
      m.m_delta > noise +. (gate /. 100.0 *. Float.abs m.m_old)

let mk gate_pct ~kind ?noise name vold vnew =
  let delta = vnew -. vold in
  let delta_pct =
    if vold <> 0.0 then Some (delta /. Float.abs vold *. 100.0) else None
  in
  let m =
    {
      m_metric = name;
      m_kind = kind;
      m_old = vold;
      m_new = vnew;
      m_delta = delta;
      m_delta_pct = delta_pct;
      m_noise = noise;
      m_regressed = false;
    }
  in
  { m with m_regressed = gated gate_pct m }

(* Compare one dotted path present in both program rows; absent on
   either side (older snapshot) means no metric. *)
let compare_path gate_pct ~kind ?noise_path name po pn =
  match (num (path name po), num (path name pn)) with
  | Some vold, Some vnew ->
      let noise =
        match noise_path with
        | None -> None
        | Some (med, p95) -> (
            (* Spread of each run's own samples, summed: movement
               inside this band is indistinguishable from jitter. *)
            match
              (num (path med po), num (path p95 po), num (path med pn),
               num (path p95 pn))
            with
            | Some mo, Some po95, Some mn, Some pn95 ->
                Some (Float.abs (po95 -. mo) +. Float.abs (pn95 -. mn))
            | _ -> None)
      in
      Some (mk gate_pct ~kind ?noise name vold vnew)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The diff                                                            *)
(* ------------------------------------------------------------------ *)

let prog_metrics gate_pct po pn =
  List.filter_map
    (fun f -> f ())
    [
      (fun () -> compare_path gate_pct ~kind:Count "base_words" po pn);
      (fun () -> compare_path gate_pct ~kind:Count "join_words" po pn);
      (fun () -> compare_path gate_pct ~kind:Count "base_steps" po pn);
      (fun () -> compare_path gate_pct ~kind:Count "join_steps" po pn);
      (fun () -> compare_path gate_pct ~kind:Count "base_jumps" po pn);
      (fun () -> compare_path gate_pct ~kind:Count "join_jumps" po pn);
      (fun () -> compare_path gate_pct ~kind:Points "delta_pct" po pn);
      (fun () ->
        compare_path gate_pct ~kind:Timing "timing.base_eval_ms_median"
          ~noise_path:
            ("timing.base_eval_ms_median", "timing.base_eval_ms_p95")
          po pn);
      (fun () ->
        compare_path gate_pct ~kind:Timing "timing.join_eval_ms_median"
          ~noise_path:
            ("timing.join_eval_ms_median", "timing.join_eval_ms_p95")
          po pn);
      (fun () ->
        compare_path gate_pct ~kind:Info "optimizer.join.total_ticks" po pn);
      (fun () ->
        compare_path gate_pct ~kind:Info "optimizer.join.contified" po pn);
      (fun () ->
        compare_path gate_pct ~kind:Info "optimizer.join.decisions.fired" po pn);
      (fun () ->
        compare_path gate_pct ~kind:Info "optimizer.join.decisions.rejected" po
          pn);
      (fun () ->
        compare_path gate_pct ~kind:Info "optimizer.join.total_gc.minor_words"
          po pn);
    ]

let label j file =
  let date = Option.value ~default:"?" (str (field "date" j)) in
  match str (field "commit" j) with
  | Some c ->
      Fmt.str "%s (%s, %s)" file date
        (String.sub c 0 (min 9 (String.length c)))
  | None -> Fmt.str "%s (%s)" file date

let diff ?gate_pct ?(gate_timing = false) ~old_label ~new_label jold jnew =
  let gate = (gate_pct, gate_timing) in
  let schema j = str (field "schema" j) in
  match (schema jold, schema jnew) with
  | Some "fj-bench/1", Some "fj-bench/1" ->
      let progs j =
        List.filter_map
          (fun p -> Option.map (fun n -> (n, p)) (str (field "name" p)))
          (arr (field "programs" j))
      in
      let po = progs jold and pn = progs jnew in
      let aligned =
        List.filter_map
          (fun (name, o) ->
            match List.assoc_opt name pn with
            | None -> None
            | Some n ->
                Some
                  {
                    p_name = name;
                    p_suite = Option.value ~default:"" (str (field "suite" o));
                    p_metrics = prog_metrics gate o n;
                  })
          po
      in
      let only l l' =
        List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name l' then None else Some name)
          l
      in
      let file_metrics =
        List.filter_map
          (fun f -> f ())
          [
            (fun () ->
              Some
                (mk gate ~kind:Info "programs"
                   (float_of_int (List.length po))
                   (float_of_int (List.length pn))));
            (fun () ->
              compare_path gate ~kind:Info "coverage.covered" jold jnew);
            (fun () ->
              compare_path gate ~kind:Info "coverage.percent" jold jnew);
          ]
      in
      Ok
        {
          d_old = label jold old_label;
          d_new = label jnew new_label;
          d_gate_pct = gate_pct;
          d_gate_timing = gate_timing;
          d_programs = aligned;
          d_only_old = only po pn;
          d_only_new = only pn po;
          d_file_metrics = file_metrics;
        }
  | s, s' ->
      let bad =
        if s <> Some "fj-bench/1" then (old_label, s) else (new_label, s')
      in
      Error
        (Fmt.str "%s: not an fj-bench/1 file (schema %s)" (fst bad)
           (Option.value ~default:"missing" (snd bad)))

let of_strings ?gate_pct ?gate_timing ~old_label ~new_label sold snew =
  match Telemetry.Json.parse sold with
  | Error m -> Error (Fmt.str "%s: %s" old_label m)
  | Ok jold -> (
      match Telemetry.Json.parse snew with
      | Error m -> Error (Fmt.str "%s: %s" new_label m)
      | Ok jnew -> diff ?gate_pct ?gate_timing ~old_label ~new_label jold jnew)

let regressions d =
  List.filter (fun (_, m) -> m.m_regressed)
    (List.map (fun m -> ("", m)) d.d_file_metrics
    @ List.concat_map
        (fun p -> List.map (fun m -> (p.p_name, m)) p.p_metrics)
        d.d_programs)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let find p name = List.find_opt (fun m -> m.m_metric = name) p.p_metrics

(* "1234 -> 1300 (+5.3%)" — the common cell. *)
let cell ppf (m : metric) =
  let v ppf x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Fmt.pf ppf "%.0f" x
    else Fmt.pf ppf "%.3f" x
  in
  Fmt.pf ppf "%a -> %a" v m.m_old v m.m_new;
  match m.m_delta_pct with
  | Some pct when m.m_kind <> Points -> Fmt.pf ppf " (%+.1f%%)" pct
  | _ -> Fmt.pf ppf " (%+.1f)" m.m_delta

let pp_gate ppf (g, timing) =
  match g with
  | None -> Fmt.pf ppf "no gate"
  | Some g ->
      Fmt.pf ppf "gate %g%% (counts), %g points (delta_pct), %s" g g
        (if timing then Fmt.str "noise+%g%% (timing)" g
         else "timing not gated")

let pp ppf d =
  Fmt.pf ppf "@[<v>fj-bench diff: %s -> %s  [%a]@," d.d_old d.d_new pp_gate
    (d.d_gate_pct, d.d_gate_timing);
  List.iter
    (fun p ->
      Fmt.pf ppf "%-22s" p.p_name;
      (match find p "join_words" with
      | Some m -> Fmt.pf ppf "  words %a" cell m
      | None -> ());
      (match find p "delta_pct" with
      | Some m -> Fmt.pf ppf "  delta_pct %a" cell m
      | None -> ());
      Fmt.pf ppf "@,")
    d.d_programs;
  List.iter (fun n -> Fmt.pf ppf "only in old: %s@," n) d.d_only_old;
  List.iter (fun n -> Fmt.pf ppf "only in new: %s@," n) d.d_only_new;
  (match regressions d with
  | [] -> Fmt.pf ppf "no regressions"
  | rs ->
      Fmt.pf ppf "REGRESSIONS (%d):@," (List.length rs);
      List.iter
        (fun (prog, m) ->
          Fmt.pf ppf "  %s %s: %a@," prog m.m_metric cell m)
        rs);
  Fmt.pf ppf "@]"

let to_markdown d =
  let b = Buffer.create 1024 in
  let pr fmt = Fmt.kstr (fun s -> Buffer.add_string b s) fmt in
  pr "# fj-bench diff\n\n";
  pr "- old: `%s`\n- new: `%s`\n- %a\n\n" d.d_old d.d_new pp_gate
    (d.d_gate_pct, d.d_gate_timing);
  pr "| program | suite | join words | base words | delta_pct (pts) | join eval p50 (ms) |\n";
  pr "|---|---|---|---|---|---|\n";
  List.iter
    (fun p ->
      let c name =
        match find p name with
        | Some m -> Fmt.str "%a%s" cell m (if m.m_regressed then " ⚠" else "")
        | None -> "—"
      in
      pr "| %s | %s | %s | %s | %s | %s |\n" p.p_name p.p_suite
        (c "join_words") (c "base_words") (c "delta_pct")
        (c "timing.join_eval_ms_median"))
    d.d_programs;
  if d.d_only_old <> [] then
    pr "\nPrograms only in old: %s\n" (String.concat ", " d.d_only_old);
  if d.d_only_new <> [] then
    pr "\nPrograms only in new: %s\n" (String.concat ", " d.d_only_new);
  (match regressions d with
  | [] -> pr "\n**No regressions.**\n"
  | rs ->
      pr "\n## Regressions (%d)\n\n" (List.length rs);
      List.iter
        (fun (prog, m) ->
          pr "- `%s` %s: %a\n"
            (if prog = "" then "(file)" else prog)
            m.m_metric cell m)
        rs);
  Buffer.contents b

let metric_json (m : metric) =
  Telemetry.Json.(
    Obj
      ([
         ("metric", Str m.m_metric);
         ("kind", Str (kind_name m.m_kind));
         ("old", Float m.m_old);
         ("new", Float m.m_new);
         ("delta", Float m.m_delta);
       ]
      @ (match m.m_delta_pct with
        | Some p -> [ ("delta_pct", Float p) ]
        | None -> [])
      @ (match m.m_noise with
        | Some n -> [ ("noise", Float n) ]
        | None -> [])
      @ [ ("regressed", Bool m.m_regressed) ]))

let to_json d =
  Telemetry.Json.(
    Obj
      [
        ("schema", Str "fj-bench-diff/1");
        ("old", Str d.d_old);
        ("new", Str d.d_new);
        ( "gate_pct",
          match d.d_gate_pct with Some g -> Float g | None -> Null );
        ("gate_timing", Bool d.d_gate_timing);
        ( "programs",
          Arr
            (List.map
               (fun p ->
                 Obj
                   [
                     ("name", Str p.p_name);
                     ("suite", Str p.p_suite);
                     ("metrics", Arr (List.map metric_json p.p_metrics));
                   ])
               d.d_programs) );
        ("only_old", Arr (List.map (fun s -> Str s) d.d_only_old));
        ("only_new", Arr (List.map (fun s -> Str s) d.d_only_new));
        ("file_metrics", Arr (List.map metric_json d.d_file_metrics));
        ( "regressions",
          Arr
            (List.map
               (fun (prog, m) ->
                 Obj [ ("program", Str prog); ("metric", metric_json m) ])
               (regressions d)) );
      ])
