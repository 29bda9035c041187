(* Content-addressed cache with integrity verification.
   See cache.mli. *)

open Fj_core

let version = "fj-cache/1"

type t = {
  root : string;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable quarantined : int;
}

type stats = { hits : int; misses : int; stores : int; quarantined : int }

let objects_dir t = Filename.concat t.root "objects"
let quarantine_dir t = Filename.concat t.root "quarantine"
let tmp_dir t = Filename.concat t.root "tmp"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let create ~dir () =
  let t =
    { root = dir; lock = Mutex.create (); hits = 0; misses = 0; stores = 0;
      quarantined = 0 }
  in
  mkdir_p (objects_dir t);
  mkdir_p (quarantine_dir t);
  mkdir_p (tmp_dir t);
  t

(* --- keying ------------------------------------------------------- *)

(* objects/ab/cdef... — the usual two-level fan-out so directory
   listings stay manageable on large corpora. *)
let entry_path t key =
  let k = Digest.to_hex (Digest.string (String.concat "\x00" key)) in
  Filename.concat (objects_dir t)
    (Filename.concat (String.sub k 0 2) (String.sub k 2 (String.length k - 2)))

(* --- entry encoding ----------------------------------------------- *)

let payload_of (cp : Pipeline.cached_pass) =
  Telemetry.Json.(
    to_string
      (Obj
         [
           ("v", Str version);
           ("output", Str (Sexp.write cp.Pipeline.cp_output));
           ("ident_after", Int cp.Pipeline.cp_ident_after);
           ("ticks", Telemetry.ticks_json cp.Pipeline.cp_ticks);
           ( "decisions",
             Arr (List.map Decision.event_json cp.Pipeline.cp_decisions) );
         ]))

(* Decode a verified payload; [None] on any shape surprise (treated as
   corruption by [find]). *)
let payload_to ~datacons s : Pipeline.cached_pass option =
  match Telemetry.Json.parse s with
  | Error _ -> None
  | Ok (Telemetry.Json.Obj fields) -> (
      let open Telemetry.Json in
      let str k =
        match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
      in
      let int k =
        match List.assoc_opt k fields with Some (Int n) -> Some n | _ -> None
      in
      match (str "v", str "output", int "ident_after") with
      | Some v, Some out, Some ident_after when String.equal v version -> (
          let ticks =
            Option.bind (List.assoc_opt "ticks" fields) Telemetry.ticks_of_json
          in
          let decisions =
            match List.assoc_opt "decisions" fields with
            | Some (Arr es) ->
                let ds = List.filter_map Decision.event_of_json es in
                if List.length ds = List.length es then Some ds else None
            | _ -> None
          in
          match (ticks, decisions) with
          | Some cp_ticks, Some cp_decisions -> (
              match Sexp.read datacons out with
              | exception _ -> None
              | cp_output ->
                  Some
                    {
                      Pipeline.cp_output;
                      cp_ident_after = ident_after;
                      cp_ticks;
                      cp_decisions;
                    })
          | _ -> None)
      | _ -> None)
  | Ok _ -> None

(* --- disk --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Atomic publish: write to a private temp file, then rename into
   place. Readers see either no entry or a complete one. *)
let write_entry t path content =
  mkdir_p (Filename.dirname path);
  let tmp =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "%d.%d.%s" (Unix.getpid ())
         (Domain.self () :> int)
         (Filename.basename path))
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let quarantine t path =
  let dest = Filename.concat (quarantine_dir t) (Filename.basename path) in
  (try Sys.rename path dest
   with Sys_error _ -> (* lost a race with another quarantining domain *) ());
  Mutex.protect t.lock (fun () -> t.quarantined <- t.quarantined + 1)

(* --- entries ------------------------------------------------------ *)

let find t ~key ~decode =
  let path = entry_path t key in
  let miss () = Mutex.protect t.lock (fun () -> t.misses <- t.misses + 1) in
  match read_file path with
  | exception Sys_error _ ->
      miss ();
      None
  | content -> (
      (* The payload is hashed and decoded where it lies, after the
         digest's LF: never copied. *)
      let verified =
        match String.index_opt content '\n' with
        | None -> None
        | Some i ->
            let pos = i + 1 in
            let sum = Digest.substring content pos (String.length content - pos) in
            if String.equal (String.sub content 0 i) (Digest.to_hex sum) then
              decode content pos
            else None
      in
      match verified with
      | None ->
          (* Truncated, bit-flipped, or unparseable: set the entry
             aside for the post-mortem and recompute. Never serve. *)
          quarantine t path;
          miss ();
          None
      | Some v ->
          Mutex.protect t.lock (fun () -> t.hits <- t.hits + 1);
          Some v)

let add t ~key clean =
  let path = entry_path t key in
  if not (Sys.file_exists path) then begin
    (* The checksum is of the *clean* payload: the "service/cache"
       fault corrupts the bytes on their way to disk, and the read
       path's re-hash must catch it. *)
    let sum = Digest.to_hex (Digest.string clean) in
    let payload =
      match Fault.trigger "service/cache" with
      | Some _ ->
          Bytes.unsafe_to_string
            (let b = Bytes.of_string clean in
             if Bytes.length b > 0 then
               Bytes.set b (Bytes.length b / 2) '\xff';
             b)
      | None -> clean
    in
    let content = sum ^ "\n" ^ payload in
    write_entry t path content;
    Mutex.protect t.lock (fun () -> t.stores <- t.stores + 1)
  end

(* --- the Pipeline hook -------------------------------------------- *)

(* Serializing the input tree is the dominant cost of a cache probe,
   and every probe is followed by a store of the *same* tree on a
   miss — memoize the last serialization (physical equality, so a
   rewritten tree never reuses a stale string). The memo belongs to
   one [pass_cache] hook, i.e. to one compile attempt. *)
let input_sexp_of last input =
  match !last with
  | Some (e, s) when e == input -> s
  | _ ->
      let s = Sexp.write input in
      last := Some (input, s);
      s

let pass_cache t ~fingerprint ~datacons =
  let last = ref None in
  let key ~pass ~supply ~input =
    [ version; fingerprint; pass; string_of_int supply; input_sexp_of last input ]
  in
  {
    Pipeline.cache_lookup =
      (fun ~pass ~supply ~input ->
        find t ~key:(key ~pass ~supply ~input) ~decode:(fun s pos ->
            payload_to ~datacons (String.sub s pos (String.length s - pos))));
    cache_store =
      (fun ~pass ~supply ~input cp ->
        add t ~key:(key ~pass ~supply ~input) (payload_of cp));
  }

(* --- stats -------------------------------------------------------- *)

let stats t =
  Mutex.protect t.lock (fun () ->
      { hits = t.hits; misses = t.misses; stores = t.stores;
        quarantined = t.quarantined })

let hit_rate t =
  let s = stats t in
  if s.hits + s.misses = 0 then 0.0
  else float_of_int s.hits /. float_of_int (s.hits + s.misses)

let stats_json t =
  let s = stats t in
  Telemetry.Json.(
    Obj
      [
        ("hits", Int s.hits);
        ("misses", Int s.misses);
        ("stores", Int s.stores);
        ("quarantined", Int s.quarantined);
        ("hit_rate", Float (hit_rate t));
      ])

let quarantine_entries t =
  let dir = quarantine_dir t in
  if Sys.file_exists dir then
    Sys.readdir dir |> Array.to_list |> List.sort String.compare
    |> List.map (Filename.concat dir)
  else []
