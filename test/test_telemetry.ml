(** Tests for {!Fj_core.Telemetry} and the structured pipeline trace:
    tick collection, mode-sensitivity of the commuting-conversion
    ticks, determinism, and the JSON emitter/parser. *)

open Fj_core
open Util

let compile src = Fj_surface.Prelude.compile src

(* A program whose optimisation is known to need case-of-case and
   jfloat: a loop that scrutinises the boolean [elem] returns, which
   is itself a case on [find]'s loop (the Sec. 5 [any]/[find] shape). *)
let cc_src =
  {|
def main =
  let rec go i acc =
    if i > 50 then acc
    else if elem i (enumFromTo 1 10) then go (i + 1) (acc + i)
    else go (i + 1) acc
  in go 1 0
|}

let report_for mode =
  let denv, core = compile cc_src in
  let cfg =
    Pipeline.default_config ~mode ~datacons:denv ~inline_threshold:300 ()
  in
  snd (Pipeline.run_report cfg core)

let tick_count r name =
  match List.assoc_opt name (Pipeline.ticks r) with Some n -> n | None -> 0

let basic_collection () =
  let c = Telemetry.create () in
  Telemetry.with_counters c (fun () ->
      Telemetry.tick Telemetry.Beta;
      Telemetry.tick ~n:3 Telemetry.Drop);
  Alcotest.(check int) "beta" 1 (Telemetry.get c Telemetry.Beta);
  Alcotest.(check int) "drop" 3 (Telemetry.get c Telemetry.Drop);
  Alcotest.(check int) "total" 4 (Telemetry.total c);
  (* No collector installed: ticks are dropped, not an error. *)
  Telemetry.tick Telemetry.Beta;
  Alcotest.(check int) "uninstalled tick dropped" 1
    (Telemetry.get c Telemetry.Beta)

let nested_collectors () =
  (* An inner collector sees its own ticks; the outer resumes after. *)
  let outer = Telemetry.create () in
  let inner = Telemetry.create () in
  Telemetry.with_counters outer (fun () ->
      Telemetry.tick Telemetry.Beta;
      Telemetry.with_counters inner (fun () -> Telemetry.tick Telemetry.Beta);
      Telemetry.tick Telemetry.Beta);
  Alcotest.(check int) "outer" 2 (Telemetry.get outer Telemetry.Beta);
  Alcotest.(check int) "inner" 1 (Telemetry.get inner Telemetry.Beta)

let cc_ticks_mode_sensitive () =
  let j = report_for Pipeline.Join_points in
  let n = report_for Pipeline.No_cc in
  Alcotest.(check bool) "join-points fires case_of_case" true
    (tick_count j "case_of_case" > 0);
  Alcotest.(check bool) "join-points fires jfloat" true
    (tick_count j "jfloat" > 0);
  Alcotest.(check int) "no-cc never fires case_of_case" 0
    (tick_count n "case_of_case");
  Alcotest.(check int) "no-cc never fires jfloat" 0 (tick_count n "jfloat")

let deterministic () =
  let a = report_for Pipeline.Join_points in
  let b = report_for Pipeline.Join_points in
  Alcotest.(check (list (pair string int)))
    "tick maps identical across runs" (Pipeline.ticks a) (Pipeline.ticks b);
  Alcotest.(check (list (pair string int)))
    "trails identical across runs" (Pipeline.trail a) (Pipeline.trail b)

let json_roundtrip () =
  let open Telemetry.Json in
  let v =
    Obj
      [
        ("s", Str "he \"said\"\n\t\\x");
        ("i", Int (-42));
        ("f", Float 1.5);
        ("b", Bool true);
        ("n", Null);
        ("a", Arr [ Int 1; Str "two"; Obj [] ]);
      ]
  in
  match parse (to_string v) with
  | Ok v' ->
      Alcotest.(check string) "roundtrip" (to_string v) (to_string v')
  | Error m -> Alcotest.failf "emitted JSON does not parse: %s" m

let report_json_well_formed () =
  let r = report_for Pipeline.Join_points in
  let json = Pipeline.report_to_json r in
  Alcotest.(check bool) "report JSON parses" true
    (Telemetry.Json.is_well_formed json);
  match Telemetry.Json.parse json with
  | Ok (Telemetry.Json.Obj fields) ->
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Fmt.str "field %s present" k)
            true
            (List.mem_assoc k fields))
        [
          "mode"; "input_size"; "output_size"; "total_ms"; "total_ticks";
          "contified"; "ticks"; "passes";
        ]
  | Ok _ -> Alcotest.fail "report JSON is not an object"
  | Error m -> Alcotest.failf "report JSON does not parse: %s" m

let json_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Fmt.str "rejects %S" s) false
        (Telemetry.Json.is_well_formed s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{} trailing" ]

(* ------------------------------------------------------------------ *)
(* String escaping round-trips (satellite: the emitter and parser
   must agree on every byte string we might put in a span name or a
   fuzz counterexample)                                                *)
(* ------------------------------------------------------------------ *)

let escape_roundtrip s =
  let open Telemetry.Json in
  let text = to_string (Str s) in
  if not (is_well_formed text) then
    Alcotest.failf "escaped %S emits ill-formed JSON: %s" s text;
  match parse text with
  | Ok (Str s') -> Alcotest.(check string) (Fmt.str "roundtrip %S" s) s s'
  | Ok j -> Alcotest.failf "%S parsed to a non-string: %s" s (to_string j)
  | Error m -> Alcotest.failf "escaped %S does not parse: %s" s m

let string_escaping_control_chars () =
  List.iter escape_roundtrip
    [
      "";
      "plain";
      "quote \" backslash \\ slash /";
      "newline \n tab \t return \r";
      "\x00\x01\x1f";  (* every escape class below 0x20 *)
      "bell \b form-feed \012";
      "mixed \"\\\n\x02 tail";
    ]

let string_escaping_multibyte_utf8 () =
  (* Multi-byte UTF-8 passes through byte-for-byte (the emitter only
     escapes ASCII control characters and the two JSON specials). *)
  List.iter escape_roundtrip
    [ "é"; "λx.x ⊢ ∀α"; "日本語"; "🙂 emoji"; "caf\xc3\xa9 \n \xe2\x8a\xa2" ]

let unicode_escape_parsing () =
  let open Telemetry.Json in
  (* \u below 0x80 decodes to the character itself... *)
  (match parse "\"\\u0041\\u000A\\u0009\"" with
  | Ok (Str s) -> Alcotest.(check string) "ascii \\u decodes" "A\n\t" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.failf "\\u form does not parse: %s" m);
  (* ...and emitting a control character uses the \u form, which must
     parse back to the same byte. *)
  match parse (to_string (Str "\x07")) with
  | Ok (Str s) -> Alcotest.(check string) "control char survives" "\x07" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error m -> Alcotest.failf "emitted control char does not parse: %s" m

(* The property behind the hand-picked cases: EVERY byte string
   round-trips through the emitter and parser. *)
let string_roundtrip_property =
  QCheck.Test.make ~count:500 ~name:"Json.Str round-trips any byte string"
    QCheck.(string_gen (Gen.char_range '\x00' '\xff'))
    (fun s ->
      let open Telemetry.Json in
      let text = to_string (Str s) in
      is_well_formed text
      &&
      match parse text with Ok (Str s') -> s' = s | _ -> false)

let now_ms_is_monotonic () =
  (* Satellite: durations come off the monotonic clock — consecutive
     reads never go backwards, and work advances them. *)
  let a = Telemetry.now_ms () in
  let x = ref 0 in
  for i = 0 to 100_000 do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x);
  let b = Telemetry.now_ms () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  (* And the epoch clock is a plausible wall-clock (after 2020). *)
  Alcotest.(check bool) "epoch_ms is absolute" true
    (Telemetry.epoch_ms () > 1.577e12)

let contify_counted_standalone () =
  let denv, core = compile cc_src in
  ignore denv;
  let _, n = Contify.contify_counted core in
  Alcotest.(check bool) "counts the contified loop" true (n > 0)

let tree_mismatch_reporting () =
  let open Eval in
  let leaf n = TLit (Literal.Int n) in
  let a = TCon ("Pair", [ leaf 1; TCon ("Cons", [ leaf 2; TCon ("Nil", []) ]) ]) in
  let b = TCon ("Pair", [ leaf 1; TCon ("Cons", [ leaf 3; TCon ("Nil", []) ]) ]) in
  Alcotest.(check (option string)) "equal trees" None (tree_mismatch a a);
  (match tree_mismatch a b with
  | Some msg ->
      let prefix = "at root.1.0" in
      Alcotest.(check bool)
        (Fmt.str "path points into the tree (%s)" msg)
        true
        (String.length msg >= String.length prefix
        && String.sub msg 0 (String.length prefix) = prefix)
  | None -> Alcotest.fail "differing trees reported equal");
  match tree_mismatch (TCon ("Nil", [])) TFun with
  | Some _ -> ()
  | None -> Alcotest.fail "constructor vs function reported equal"

let tick_name_round_trips () =
  (* Exhaustive: every tick's printed name parses back to itself, so
     coverage maps and fjc cover JSON can key ticks by name. *)
  List.iter
    (fun t ->
      match Telemetry.tick_of_name (Telemetry.tick_name t) with
      | Some t' when t' = t -> ()
      | Some t' ->
          Alcotest.failf "%s parsed back as %s" (Telemetry.tick_name t)
            (Telemetry.tick_name t')
      | None ->
          Alcotest.failf "%s does not parse back" (Telemetry.tick_name t))
    Telemetry.all_ticks;
  (* Names are unique — the table cannot alias two ticks. *)
  let names = List.map Telemetry.tick_name Telemetry.all_ticks in
  Alcotest.(check int)
    "names are distinct"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check (option reject)) "unknown name rejected" None
    (Telemetry.tick_of_name "no-such-tick")

(* ------------------------------------------------------------------ *)
(* The JSON reader against the one it replaced                         *)
(* ------------------------------------------------------------------ *)

(* The parser [Json.parse] replaced, kept as its oracle: a [char option]
   per peek and one buffered character at a time. The rewrite must give
   the same value, or the same error message at the same offset, on
   every input. *)
exception Old_bad of string

let old_json_parse (s : string) : (Telemetry.Json.t, string) result =
  let open Telemetry.Json in
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Old_bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail "bad \\u escape"
              | Some code ->
                  (* Keep it simple: BMP code points below 0x80 as a
                     char, the rest replaced; traces are ASCII. *)
                  if code < 0x80 then Buffer.add_char b (Char.chr code)
                  else Buffer.add_char b '?');
              pos := !pos + 4;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
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
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
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
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Old_bad msg -> Error msg

(* A real document with escapes: the [fjc serve] response line for one
   program, which carries the output Sexp as a JSON string. *)
let serve_response () =
  let path = Filename.temp_file "fj-json" ".fj" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc
        "def main =\n\
        \  let rec go n acc = if n == 0 then acc else go (n - 1) (acc + n)\n\
        \  in go 10 0\n";
      close_out oc;
      let o =
        Fj_service.Service.process_one
          (Fj_service.Service.default_config ())
          ~id:"json" ~path
      in
      match o.Fj_service.Service.status with
      | Fj_service.Service.Compiled _ ->
          Telemetry.Json.to_string (Fj_service.Service.response_json o)
      | st ->
          Alcotest.failf "payload program did not compile: %s"
            (Fj_service.Service.status_name st))

let json_parse_matches_oracle () =
  let payload = serve_response () in
  let same what s =
    let expected = old_json_parse s in
    if Telemetry.Json.parse s <> expected then
      Alcotest.failf "%s: parse differs from the oracle (oracle: %s)" what
        (match expected with Ok _ -> "a value" | Error m -> m)
  in
  Alcotest.(check bool) "the payload parses" true
    (Result.is_ok (Telemetry.Json.parse payload));
  Alcotest.(check bool) "the payload has escapes" true
    (String.contains payload '\\');
  let n = String.length payload in
  for i = 0 to n do
    same (Fmt.str "prefix of %d bytes" i) (String.sub payload 0 i)
  done;
  (* Bytes replaced by one the grammar cares about, or by any byte. *)
  let st = Random.State.make [| 15 |] in
  let pick = "\"\\/{}[],:-+.eE0123456789unrtbfx \n" in
  for _ = 1 to 2000 do
    let i = Random.State.int st n in
    let c =
      if Random.State.int st 4 = 0 then Char.chr (Random.State.int st 256)
      else pick.[Random.State.int st (String.length pick)]
    in
    let b = Bytes.of_string payload in
    Bytes.set b i c;
    same (Fmt.str "byte %d set to %C" i c) (Bytes.to_string b)
  done

let tests =
  [
    test "tick collection and totals" basic_collection;
    test "nested collectors" nested_collectors;
    test "case-of-case/jfloat ticks are mode-sensitive" cc_ticks_mode_sensitive;
    test "tick counts are deterministic" deterministic;
    test "JSON emitter round-trips" json_roundtrip;
    test "pipeline report JSON is well-formed" report_json_well_formed;
    test "JSON parser rejects garbage" json_rejects_garbage;
    test "contify_counted counts per invocation" contify_counted_standalone;
    test "tick names round-trip through tick_of_name" tick_name_round_trips;
    test "tree_mismatch locates the first divergence" tree_mismatch_reporting;
    test "string escaping round-trips control chars"
      string_escaping_control_chars;
    test "string escaping passes multi-byte UTF-8" string_escaping_multibyte_utf8;
    test "\\u escapes parse" unicode_escape_parsing;
    QCheck_alcotest.to_alcotest string_roundtrip_property;
    test "now_ms is monotonic, epoch_ms is absolute" now_ms_is_monotonic;
    test "JSON parser = the old parser, values and errors"
      json_parse_matches_oracle;
  ]
