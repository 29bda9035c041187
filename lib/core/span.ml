(** Hierarchical wall-clock spans — see the interface for the design. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start_ms : float;
  sp_dur_ms : float;
  sp_depth : int;
  sp_gc : Gcstats.t;
  sp_args : (string * Telemetry.Json.t) list;
}

(* A span being timed: annotations accumulate until it closes. *)
type open_span = {
  o_name : string;
  o_cat : string;
  o_t0 : float;
  o_gc0 : Gcstats.t;
  o_depth : int;
  mutable o_args : (string * Telemetry.Json.t) list;  (* newest first *)
}

type collector = {
  completed : span Queue.t;  (* oldest first *)
  cap : int option;
  mutable open_stack : open_span list;  (* innermost first *)
  mutable n_dropped : int;
}

let create ?cap () =
  { completed = Queue.create (); cap; open_stack = []; n_dropped = 0 }

(* The innermost installed collector; installation nests (save and
   restore), exactly as Telemetry collectors do. *)
let current : collector option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_collector c f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let record c (sp : span) =
  (match c.cap with
  | Some cap when Queue.length c.completed >= cap ->
      ignore (Queue.pop c.completed);
      c.n_dropped <- c.n_dropped + 1
  | _ -> ());
  Queue.push sp c.completed

let annotate key v =
  match Domain.DLS.get current with
  | None -> ()
  | Some c -> (
      match c.open_stack with
      | [] -> ()
      | o :: _ -> o.o_args <- (key, v) :: List.remove_assoc key o.o_args)

let with_span_stats ?(cat = "") name f =
  match Domain.DLS.get current with
  | None ->
      let t0 = Telemetry.now_ms () in
      let gc0 = Gcstats.snapshot () in
      let x = f () in
      let gc = Gcstats.delta gc0 (Gcstats.snapshot ()) in
      (x, Telemetry.now_ms () -. t0, gc)
  | Some c ->
      let o =
        {
          o_name = name;
          o_cat = cat;
          o_t0 = Telemetry.now_ms ();
          o_gc0 = Gcstats.snapshot ();
          o_depth = List.length c.open_stack;
          o_args = [];
        }
      in
      c.open_stack <- o :: c.open_stack;
      let dur = ref 0.0 in
      let gc = ref Gcstats.zero in
      let close ~raised =
        (* [f] may itself have installed a different collector and
           leaked an unbalanced stack only on raise; pop down to [o]
           defensively so an exception cannot wedge the nesting. *)
        (if raised then
           o.o_args <- ("raised", Telemetry.Json.Bool true) :: o.o_args);
        dur := Telemetry.now_ms () -. o.o_t0;
        gc := Gcstats.delta o.o_gc0 (Gcstats.snapshot ());
        (match c.open_stack with
        | o' :: rest when o' == o -> c.open_stack <- rest
        | stack -> c.open_stack <- List.filter (fun o' -> not (o' == o)) stack);
        record c
          {
            sp_name = o.o_name;
            sp_cat = o.o_cat;
            sp_start_ms = o.o_t0;
            sp_dur_ms = !dur;
            sp_depth = o.o_depth;
            sp_gc = !gc;
            sp_args = List.rev o.o_args;
          }
      in
      let x =
        match f () with
        | x ->
            close ~raised:false;
            x
        | exception exn ->
            close ~raised:true;
            raise exn
      in
      (x, !dur, !gc)

(* With no collector these two take no GC snapshot: nothing would
   keep it. *)
let with_span_timed ?cat name f =
  match Domain.DLS.get current with
  | None ->
      let t0 = Telemetry.now_ms () in
      let x = f () in
      (x, Telemetry.now_ms () -. t0)
  | Some _ ->
      let x, dur, _ = with_span_stats ?cat name f in
      (x, dur)

let with_span ?cat name f =
  match Domain.DLS.get current with
  | None -> f ()
  | Some _ ->
      let x, _, _ = with_span_stats ?cat name f in
      x

let spans c = List.rev (Queue.fold (fun acc s -> s :: acc) [] c.completed)
let dropped c = c.n_dropped

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let us ms = int_of_float (Float.round (ms *. 1000.0))

let event ?(pid = 1) ?(tid = 1) (sp : span) =
  Telemetry.Json.(
    Obj
      [
        ("ph", Str "X");
        ("ts", Int (us sp.sp_start_ms));
        ("dur", Int (us sp.sp_dur_ms));
        ("name", Str sp.sp_name);
        ("cat", Str (if sp.sp_cat = "" then "span" else sp.sp_cat));
        ("pid", Int pid);
        ("tid", Int tid);
        ("args", Obj (sp.sp_args @ Gcstats.fields sp.sp_gc));
      ])

let by_start_order ss =
  (* Children complete before their parents, so the completion queue
     is not start-ordered; ties on the coarse clock are broken by
     depth so a parent always precedes its children. *)
  List.stable_sort
    (fun a b -> compare (a.sp_start_ms, a.sp_depth) (b.sp_start_ms, b.sp_depth))
    ss

let trace_events ?pid ?tid c = List.map (event ?pid ?tid) (by_start_order (spans c))

let thread_name_event ?(pid = 1) ~tid name =
  Telemetry.Json.(
    Obj
      [
        ("ph", Str "M");
        ("ts", Int 0);
        ("name", Str "thread_name");
        ("pid", Int pid);
        ("tid", Int tid);
        ("args", Obj [ ("name", Str name) ]);
      ])

let counter_event ?(pid = 1) ?(tid = 1) ~name ~ts args =
  Telemetry.Json.(
    Obj
      [
        ("ph", Str "C");
        ("ts", Int ts);
        ("name", Str name);
        ("pid", Int pid);
        ("tid", Int tid);
        ("args", Obj args);
      ])

let span_json (sp : span) =
  Telemetry.Json.(
    Obj
      [
        ("name", Str sp.sp_name);
        ("cat", Str sp.sp_cat);
        ("start_ms", Float sp.sp_start_ms);
        ("dur_ms", Float sp.sp_dur_ms);
        ("depth", Int sp.sp_depth);
        ("gc", Gcstats.to_json sp.sp_gc);
        ("args", Obj sp.sp_args);
      ])

(* ------------------------------------------------------------------ *)
(* Collapsed-stack (folded) export                                     *)
(* ------------------------------------------------------------------ *)

type weight = Self_time | Alloc_words

(* A reconstructed span-tree node; children newest-first while
   building. *)
type fnode = { f_span : span; mutable f_children : fnode list }

(* Rebuild the forest from the flat completed-span list: replay the
   spans in start order keeping the path of currently-enclosing nodes
   (the recorded depth says how far to pop). A ring-capped collector
   may have evicted ancestors; an orphan attaches to the closest
   surviving one. *)
let forest c =
  let roots = ref [] in
  let path = ref [] in
  (* innermost first *)
  List.iter
    (fun sp ->
      let rec pop p = if List.length p > sp.sp_depth then pop (List.tl p) else p in
      path := pop !path;
      let node = { f_span = sp; f_children = [] } in
      (match !path with
      | [] -> roots := node :: !roots
      | parent :: _ -> parent.f_children <- node :: parent.f_children);
      path := node :: !path)
    (by_start_order (spans c));
  List.rev !roots

(* One flamegraph frame. Root spans keep their bare name ([compile],
   [eval]); nested frames are prefixed with their category, giving
   [compile;pass:simplify_(0);guard:lint]. The folded format reserves
   ';' (stack separator) and ' ' (weight separator). *)
let frame_label (sp : span) =
  let sanitize s =
    String.map (function ';' -> ',' | ' ' -> '_' | c -> c) s
  in
  if sp.sp_depth = 0 || sp.sp_cat = "" then sanitize sp.sp_name
  else sanitize (sp.sp_cat ^ ":" ^ sp.sp_name)

let folded_stacks ?(weight = Self_time) c =
  (* Integer per-span weights first, so that self = own - Σ children
     is exact in the integer domain and the folded lines sum to
     exactly the roots' totals (no float re-rounding drift). *)
  let span_weight (sp : span) =
    match weight with
    | Self_time -> us sp.sp_dur_ms
    | Alloc_words -> int_of_float (Float.round (Gcstats.alloc_words sp.sp_gc))
  in
  let tbl = Hashtbl.create 64 in
  let keys = ref [] in
  let add stack w =
    match Hashtbl.find_opt tbl stack with
    | Some prior -> Hashtbl.replace tbl stack (prior + w)
    | None ->
        keys := stack :: !keys;
        Hashtbl.add tbl stack w
  in
  let rec visit prefix n =
    let stack =
      let l = frame_label n.f_span in
      if prefix = "" then l else prefix ^ ";" ^ l
    in
    let children = List.rev n.f_children in
    let child_sum =
      List.fold_left (fun acc ch -> acc + span_weight ch.f_span) 0 children
    in
    add stack (max 0 (span_weight n.f_span - child_sum));
    List.iter (visit stack) children
  in
  List.iter (visit "") (forest c);
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun k -> (k, Hashtbl.find tbl k)) !keys)

let folded ?weight c =
  String.concat "\n"
    (List.map (fun (stack, w) -> Fmt.str "%s %d" stack w)
       (folded_stacks ?weight c))
