(** Compiler telemetry — see the interface for the design. *)

type tick =
  | Beta
  | Beta_tau
  | Inline
  | Pre_inline
  | Drop
  | Jinline
  | Jdrop
  | Case_of_known
  | Case_elim
  | Casefloat
  | Case_of_case
  | Jfloat
  | Abort
  | Commute
  | Constant_fold
  | Share_alt
  | Anf_con
  | Demote
  | Contified
  | Contified_group
  | Cse_shared
  | Strict_let
  | Strict_arg
  | Spec_constr
  | Float_in_moved
  | Float_out_moved
  | Rule_fired

let tick_name = function
  | Beta -> "beta"
  | Beta_tau -> "beta_tau"
  | Inline -> "inline"
  | Pre_inline -> "pre_inline"
  | Drop -> "drop"
  | Jinline -> "jinline"
  | Jdrop -> "jdrop"
  | Case_of_known -> "case_of_known"
  | Case_elim -> "case_elim"
  | Casefloat -> "casefloat"
  | Case_of_case -> "case_of_case"
  | Jfloat -> "jfloat"
  | Abort -> "abort"
  | Commute -> "commute"
  | Constant_fold -> "constant_fold"
  | Share_alt -> "share_alt"
  | Anf_con -> "anf_con"
  | Demote -> "demote"
  | Contified -> "contify"
  | Contified_group -> "contify_group"
  | Cse_shared -> "cse"
  | Strict_let -> "demand_strict_let"
  | Strict_arg -> "demand_strict_arg"
  | Spec_constr -> "spec_constr"
  | Float_in_moved -> "float_in"
  | Float_out_moved -> "float_out"
  | Rule_fired -> "rule_fired"

let index = function
  | Beta -> 0
  | Beta_tau -> 1
  | Inline -> 2
  | Pre_inline -> 3
  | Drop -> 4
  | Jinline -> 5
  | Jdrop -> 6
  | Case_of_known -> 7
  | Case_elim -> 8
  | Casefloat -> 9
  | Case_of_case -> 10
  | Jfloat -> 11
  | Abort -> 12
  | Commute -> 13
  | Constant_fold -> 14
  | Share_alt -> 15
  | Anf_con -> 16
  | Demote -> 17
  | Contified -> 18
  | Contified_group -> 19
  | Cse_shared -> 20
  | Strict_let -> 21
  | Strict_arg -> 22
  | Spec_constr -> 23
  | Float_in_moved -> 24
  | Float_out_moved -> 25
  | Rule_fired -> 26

let all_ticks =
  [
    Beta; Beta_tau; Inline; Pre_inline; Drop; Jinline; Jdrop;
    Case_of_known; Case_elim; Casefloat; Case_of_case; Jfloat; Abort;
    Commute; Constant_fold; Share_alt; Anf_con; Demote; Contified;
    Contified_group; Cse_shared; Strict_let; Strict_arg; Spec_constr;
    Float_in_moved; Float_out_moved; Rule_fired;
  ]

let n_ticks = List.length all_ticks

(* The inverse of [tick_name], as a closed assoc over [all_ticks] so
   the two can never drift apart (a new tick added to [all_ticks]
   is automatically loadable by name). *)
let name_table = List.map (fun t -> (tick_name t, t)) all_ticks
let tick_of_name name = List.assoc_opt name name_table

type counters = int array

let create () : counters = Array.make n_ticks 0

(* The innermost installed collector. Installation nests (the previous
   collector is saved and restored), so a pass that runs a sub-pipeline
   — e.g. a test driving two reports — cannot cross-contaminate.
   Domain-local: parallel compile-service workers each install their
   own collector without racing. *)
let current : counters option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_counters c f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

(* An optional per-tick observer, orthogonal to the collector: {!Guard}
   installs one to meter a pass's rewrite budget, so a pass that loops
   rewriting forever is cut off even though each individual rewrite is
   legitimate. The observer runs whether or not a collector is
   installed, and may raise (that is the point). Observers stack
   rather than shadow: the compile service's deadline watchdog wraps a
   whole request, and must keep firing inside a pass that has also
   installed its fuel meter. *)
let observer : (int -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_observer h f =
  let saved = Domain.DLS.get observer in
  let chained =
    match saved with None -> h | Some g -> fun n -> h n; g n
  in
  Domain.DLS.set observer (Some chained);
  Fun.protect ~finally:(fun () -> Domain.DLS.set observer saved) f

let notify n = match Domain.DLS.get observer with None -> () | Some h -> h n

let tick ?(n = 1) t =
  notify n;
  match Domain.DLS.get current with
  | None -> ()
  | Some c ->
      let i = index t in
      c.(i) <- c.(i) + n

let get (c : counters) t = c.(index t)
let total (c : counters) = Array.fold_left ( + ) 0 c

let nonzero (c : counters) =
  List.filter_map
    (fun t ->
      let n = get c t in
      if n > 0 then Some (tick_name t, n) else None)
    all_ticks

type snapshot = int array

let snapshot (c : counters) : snapshot = Array.copy c

let delta_since (s : snapshot) (c : counters) =
  List.filter_map
    (fun t ->
      let i = index t in
      let d = c.(i) - s.(i) in
      if d > 0 then Some (tick_name t, d) else None)
    all_ticks

let pp_table ppf (c : counters) =
  Fmt.pf ppf "@[<v>Total ticks: %d" (total c);
  List.iter (fun (name, n) -> Fmt.pf ppf "@,%8d %s" n name) (nonzero c);
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* Durations are measured on the monotonic clock (CLOCK_MONOTONIC via
   the bechamel stub, already a dependency of the package), so a
   backwards NTP step can never make a pass or span read negative.
   The origin is process start-up, keeping the values small enough
   that the %.6g float printing below loses nothing. *)
let origin_ns = Monotonic_clock.now ()

let now_ms () =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin_ns) /. 1e6

(* The wall clock, for the few places that report an absolute
   timestamp (trace capture time, heartbeats) — never subtracted. *)
let epoch_ms () = Unix.gettimeofday () *. 1000.0

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  let to_string (j : t) : string =
    let b = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string b "null"
      | Bool true -> Buffer.add_string b "true"
      | Bool false -> Buffer.add_string b "false"
      | Int n -> Buffer.add_string b (string_of_int n)
      | Float f ->
          if Float.is_finite f then
            (* %.17g round-trips but is noisy; ms precisions don't need
               it. Ensure the result still reads back as a number. *)
            Buffer.add_string b (Printf.sprintf "%.6g" f)
          else Buffer.add_string b "null"
      | Str s -> escape_string b s
      | Arr xs ->
          Buffer.add_char b '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char b ',';
              go x)
            xs;
          Buffer.add_char b ']'
      | Obj fields ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              escape_string b k;
              Buffer.add_char b ':';
              go v)
            fields;
          Buffer.add_char b '}'
    in
    go j;
    Buffer.contents b

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let at c = !pos < n && s.[!pos] = c in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      if !pos < n then
        match s.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
            incr pos;
            skip_ws ()
        | _ -> ()
    in
    let expect c =
      if at c then incr pos else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      let rec same i = i = l || (s.[!pos + i] = word.[i] && same (i + 1)) in
      if !pos + l <= n && same 0 then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    (* The end of the run of plain characters starting at [i]. *)
    let rec plain i =
      if i < n then match s.[i] with '"' | '\\' -> i | _ -> plain (i + 1)
      else i
    in
    let escape b =
      if !pos >= n then fail "bad escape";
      let add c =
        Buffer.add_char b c;
        incr pos
      in
      match s.[!pos] with
      | '"' -> add '"'
      | '\\' -> add '\\'
      | '/' -> add '/'
      | 'n' -> add '\n'
      | 'r' -> add '\r'
      | 't' -> add '\t'
      | 'b' -> add '\b'
      | 'f' -> add '\012'
      | 'u' -> (
          incr pos;
          if !pos + 4 > n then fail "bad \\u escape";
          match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | None -> fail "bad \\u escape"
          | Some code ->
              (* Keep it simple: BMP code points below 0x80 as a
                 char, the rest replaced; traces are ASCII. *)
              Buffer.add_char b (if code < 0x80 then Char.chr code else '?');
              pos := !pos + 4)
      | _ -> fail "bad escape"
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      let stop = plain start in
      if stop < n && s.[stop] = '"' then begin
        pos := stop + 1;
        String.sub s start (stop - start)
      end
      else begin
        (* Escapes: copy the runs between them. *)
        let b = Buffer.create (stop - start + 16) in
        let rec go i =
          let j = plain i in
          Buffer.add_substring b s i (j - i);
          pos := j;
          if j >= n then fail "unterminated string"
          else if s.[j] = '"' then incr pos
          else begin
            incr pos;
            escape b;
            go !pos
          end
        in
        go start;
        Buffer.contents b
      end
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      if !pos >= n then fail "unexpected end of input";
      match s.[!pos] with
      | '{' ->
          incr pos;
          skip_ws ();
          if at '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              if at ',' then begin
                incr pos;
                members ((k, v) :: acc)
              end
              else if at '}' then begin
                incr pos;
                List.rev ((k, v) :: acc)
              end
              else fail "expected ',' or '}'"
            in
            Obj (members [])
      | '[' ->
          incr pos;
          skip_ws ();
          if at ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              if at ',' then begin
                incr pos;
                items (v :: acc)
              end
              else if at ']' then begin
                incr pos;
                List.rev (v :: acc)
              end
              else fail "expected ',' or ']'"
            in
            Arr (items [])
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let is_well_formed s = Result.is_ok (parse s)
end

let ticks_json l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l)

let ticks_of_json = function
  | Json.Obj kvs ->
      let ts =
        List.filter_map (function k, Json.Int n -> Some (k, n) | _ -> None) kvs
      in
      if List.compare_lengths ts kvs = 0 then Some ts else None
  | _ -> None
