(** The runtime allocation profiler: per-site cost attribution and a
    bounded machine event trace.

    This is the runtime complement of {!Telemetry}'s compile-time
    ticks, modelled on GHC's cost-centre profiling (Sansom &
    Peyton Jones, POPL 1995): every heap object is labelled with the
    {e allocation site} that built it — the name hint of the binder
    ({!Ident.site}), which substitution, inlining and contification all
    preserve — so the optimised program's allocations map back to
    source bindings. Both machines ({!Eval} and
    {!Fj_machine.Bmachine}) attribute into the same profile shape, and
    the paper's central claim becomes checkable {e per site}: a
    [join]-labelled site accumulates steps and jumps but {b zero
    words}.

    Attribution rules:

    - {b words/objects} go to the binder that built the object (a
      thunk's [let], a closure's [let]/argument position, a
      constructor's binder, ["<pap>"] for partial applications);
    - {b steps} go to the nearest enclosing cost centre: the thunk
      being forced, the join point jumped to, the code entered — or
      ["MAIN"] outside any of these;
    - {b jumps/updates/entries} go to the label jumped to, the thunk
      updated, the site entered.

    The event trace is a bounded ring buffer (oldest events are
    dropped once [trace_cap] is exceeded, and counted in [dropped]);
    it serialises to JSON via {!Telemetry.Json} and parses back, so
    traces survive a round trip through files and tools. *)

(** The site that is charged when execution is outside any labelled
    cost centre. *)
let main_site = "MAIN"

(** What kind of object (or binding) a site builds. A site first seen
    as a [join] keeps that kind: the join claim ("neither allocates")
    is what the profile exists to check. *)
type kind = Thunk | Closure | Con | Pap | Join

let kind_name = function
  | Thunk -> "thunk"
  | Closure -> "closure"
  | Con -> "con"
  | Pap -> "pap"
  | Join -> "join"

type site = {
  site_label : string;
  mutable site_kind : kind;
  mutable s_objects : int;
  mutable s_words : int;
  mutable s_steps : int;
  mutable s_jumps : int;
  mutable s_updates : int;
  mutable s_entries : int;  (** Thunk forces / code entries. *)
}

(** One machine step event, as stored in the ring buffer. *)
type event =
  | EEnter of string  (** A thunk was forced / a code was entered. *)
  | EAlloc of string * int  (** An object of [words] words was built. *)
  | EJump of string  (** A jump/goto to this label. *)
  | EUpdate of string  (** A thunk at this site was updated. *)

let event_equal (a : event) (b : event) = a = b

type t = {
  tbl : (string, site) Hashtbl.t;
  mutable order : string list;  (** First-seen order, newest first. *)
  ring : event array;  (** Bounded trace; unused when [cap = 0]. *)
  cap : int;
  mutable start : int;  (** Index of the oldest retained event. *)
  mutable len : int;
  mutable dropped : int;  (** Events evicted by the ring bound. *)
}

let default_trace_cap = 4096

let create ?(trace_cap = default_trace_cap) () =
  {
    tbl = Hashtbl.create 64;
    order = [];
    ring =
      (if trace_cap <= 0 then [||] else Array.make trace_cap (EEnter main_site));
    cap = max trace_cap 0;
    start = 0;
    len = 0;
    dropped = 0;
  }

let record p ev =
  if p.cap > 0 then
    if p.len < p.cap then begin
      p.ring.((p.start + p.len) mod p.cap) <- ev;
      p.len <- p.len + 1
    end
    else begin
      (* Full: overwrite the oldest. *)
      p.ring.(p.start) <- ev;
      p.start <- (p.start + 1) mod p.cap;
      p.dropped <- p.dropped + 1
    end

let site p label kind =
  match Hashtbl.find_opt p.tbl label with
  | Some s ->
      (* A join site stays a join site; otherwise first kind wins. *)
      if s.site_kind <> Join && kind = Join then s.site_kind <- Join;
      s
  | None ->
      let s =
        {
          site_label = label;
          site_kind = kind;
          s_objects = 0;
          s_words = 0;
          s_steps = 0;
          s_jumps = 0;
          s_updates = 0;
          s_entries = 0;
        }
      in
      Hashtbl.add p.tbl label s;
      p.order <- label :: p.order;
      s

(* ------------------------------------------------------------------ *)
(* Attribution (the machine-facing API)                                *)
(* ------------------------------------------------------------------ *)

let alloc p ~label ~kind ~words =
  let s = site p label kind in
  s.s_objects <- s.s_objects + 1;
  s.s_words <- s.s_words + words;
  record p (EAlloc (label, words))

let step p label =
  let s = site p label Thunk in
  s.s_steps <- s.s_steps + 1

let enter p label =
  let s = site p label Thunk in
  s.s_entries <- s.s_entries + 1;
  record p (EEnter label)

let jump p label =
  let s = site p label Join in
  s.s_jumps <- s.s_jumps + 1;
  record p (EJump label)

let update p label =
  let s = site p label Thunk in
  s.s_updates <- s.s_updates + 1;
  record p (EUpdate label)

(** Register a join binding's label so it appears in the profile (with
    zero words) even if it is never jumped to. *)
let join_bind p label = ignore (site p label Join)

(* ------------------------------------------------------------------ *)
(* Reading the profile                                                 *)
(* ------------------------------------------------------------------ *)

let find p label = Hashtbl.find_opt p.tbl label

let total_words p =
  Hashtbl.fold (fun _ s acc -> acc + s.s_words) p.tbl 0

(** Every site, heaviest (words, then steps) first; ties broken by
    label so output is deterministic. *)
let sites p =
  let all = Hashtbl.fold (fun _ s acc -> s :: acc) p.tbl [] in
  List.sort
    (fun a b ->
      match compare (b.s_words, b.s_steps) (a.s_words, a.s_steps) with
      | 0 -> String.compare a.site_label b.site_label
      | c -> c)
    all

let join_sites p =
  List.filter (fun s -> s.site_kind = Join) (sites p)

(** Retained events, oldest first. *)
let events p = List.init p.len (fun i -> p.ring.((p.start + i) mod p.cap))

let dropped p = p.dropped

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_json = function
  | EEnter l -> Telemetry.Json.(Obj [ ("t", Str "enter"); ("site", Str l) ])
  | EAlloc (l, w) ->
      Telemetry.Json.(
        Obj [ ("t", Str "alloc"); ("site", Str l); ("words", Int w) ])
  | EJump l -> Telemetry.Json.(Obj [ ("t", Str "jump"); ("site", Str l) ])
  | EUpdate l -> Telemetry.Json.(Obj [ ("t", Str "update"); ("site", Str l) ])

let event_of_json (j : Telemetry.Json.t) : (event, string) result =
  let open Telemetry.Json in
  match j with
  | Obj fields -> (
      let str k =
        match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
      in
      let int k =
        match List.assoc_opt k fields with Some (Int n) -> Some n | _ -> None
      in
      match (str "t", str "site") with
      | Some "enter", Some l -> Ok (EEnter l)
      | Some "alloc", Some l -> (
          match int "words" with
          | Some w -> Ok (EAlloc (l, w))
          | None -> Error "alloc event without integer \"words\"")
      | Some "jump", Some l -> Ok (EJump l)
      | Some "update", Some l -> Ok (EUpdate l)
      | Some t, Some _ -> Error ("unknown event tag " ^ t)
      | _ -> Error "event object needs string \"t\" and \"site\"")
  | _ -> Error "event is not an object"

let events_json p = Telemetry.Json.Arr (List.map event_json (events p))

let events_of_json (j : Telemetry.Json.t) : (event list, string) result =
  match j with
  | Telemetry.Json.Arr items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match event_of_json x with
            | Ok e -> go (e :: acc) rest
            | Error _ as e -> e)
      in
      go [] items
  | _ -> Error "event trace is not an array"

let site_json s =
  Telemetry.Json.(
    Obj
      [
        ("site", Str s.site_label);
        ("kind", Str (kind_name s.site_kind));
        ("objects", Int s.s_objects);
        ("words", Int s.s_words);
        ("steps", Int s.s_steps);
        ("jumps", Int s.s_jumps);
        ("updates", Int s.s_updates);
        ("entries", Int s.s_entries);
      ])

let to_json ?stats p =
  let base =
    [
      ("total_words", Telemetry.Json.Int (total_words p));
      ("sites", Telemetry.Json.Arr (List.map site_json (sites p)));
      ("events", events_json p);
      ("events_dropped", Telemetry.Json.Int p.dropped);
    ]
  in
  Telemetry.Json.Obj
    (match stats with
    | None -> base
    | Some s -> ("machine", Mstats.to_json s) :: base)
