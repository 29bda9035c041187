(** S-expression serialisation of System F_J.

    A production compiler persists its IR — GHC writes interface files
    with unfoldings so that cross-module inlining (which Sec. 2 calls
    "the key that unlocks a cascade of further optimizations") can see
    definitions from other compilation units. This module provides that
    substrate: a complete, round-trippable textual encoding of types,
    terms and datatype environments.

    Uniques are preserved through a round trip, so a reloaded term is
    syntactically identical (not merely alpha-equivalent) — checked by
    the property tests. *)

open Syntax

(* ------------------------------------------------------------------ *)
(* S-expressions                                                       *)
(* ------------------------------------------------------------------ *)

type t = Atom of string | List of t list

(* The writer's layout is exactly what [Format.asprintf] made of an
   [@[<hov 1>(...)@]] box per list with [@ ] between elements, which is
   what every artifact was written with; test_sexp keeps that Format
   printer as an oracle and compares byte for byte. [Layout] is a port
   of Stdlib.Format's engine cut down to that token stream: text, a hov
   box of indent 1, and [break 1 0], under asprintf's geometry (margin
   78, max indent 68) inside an always-open hov system box, and its
   functions keep the names of the Format functions they port. A
   closed-form fits test would not reproduce it: a box whose size is
   still unknown counts as infinitely large once the queued text
   reaches the space left, and a box opened past column 68 breaks its
   parent. *)
module Layout = struct
  let margin = 78
  let max_indent = 68
  let pp_infinity = 1000000010

  (* Token kinds. The system box is the hov box of indent 0 that
     encloses everything. *)
  let k_text = 0
  let k_open = 1
  let k_sys = 2
  let k_close = 3
  let k_break = 4

  type state = {
    out : Buffer.t;
    (* The token queue: a ring of flat arrays, slot [n land mask] for
       token number [n]; tokens [head .. tail - 1] are queued. Sizes
       are negative while unknown. *)
    mutable kind : int array;
    mutable size : int array;
    mutable length : int array;
    mutable text : string array;
    mutable mask : int;
    mutable head : int;
    mutable tail : int;
    (* The scan stack: per entry, [pp_right_total] when it was pushed,
       the token number and its kind. Entry 0 is the sentinel. *)
    mutable scan_left : int array;
    mutable scan_tok : int array;
    mutable scan_kind : int array;
    mutable scan_top : int;
    (* The format stack: the open boxes being printed. *)
    mutable box_width : int array;
    mutable box_fits : bool array;
    mutable box_top : int;
    mutable space_left : int;
    mutable left_total : int;
    mutable right_total : int;
  }

  let grow a fill = Array.append a (Array.make (Array.length a) fill)

  (* Returns the token's number. *)
  let pp_enqueue st kind size length text =
    if st.tail - st.head > st.mask then begin
      (* Full: unroll the ring into arrays twice the size. *)
      let cap = st.mask + 1 in
      let unroll a fill =
        Array.init (2 * cap) (fun j ->
            if j < cap then a.((st.head + j) land st.mask) else fill)
      in
      st.kind <- unroll st.kind 0;
      st.size <- unroll st.size 0;
      st.length <- unroll st.length 0;
      st.text <- unroll st.text "";
      st.tail <- st.tail - st.head;
      (* Scan entries name tokens by number: renumber them too. *)
      for j = 1 to st.scan_top - 1 do
        st.scan_tok.(j) <- st.scan_tok.(j) - st.head
      done;
      st.head <- 0;
      st.mask <- (2 * cap) - 1
    end;
    let n = st.tail in
    let i = n land st.mask in
    st.kind.(i) <- kind;
    st.size.(i) <- size;
    st.length.(i) <- length;
    st.text.(i) <- text;
    st.tail <- n + 1;
    st.right_total <- st.right_total + length;
    n

  let break_new_line st width =
    Buffer.add_char st.out '\n';
    let indent = Int.min max_indent (margin - width) in
    st.space_left <- margin - indent;
    for _ = 1 to indent do
      Buffer.add_char st.out ' '
    done

  let break_same_line st =
    st.space_left <- st.space_left - 1;
    Buffer.add_char st.out ' '

  let pp_force_break_line st =
    if st.box_top = 0 then Buffer.add_char st.out '\n'
    else
      let top = st.box_top - 1 in
      let width = st.box_width.(top) in
      if width > st.space_left && not st.box_fits.(top) then
        break_new_line st width

  let format_pp_token st i size =
    let kind = st.kind.(i) in
    if kind = k_text then begin
      st.space_left <- st.space_left - size;
      Buffer.add_string st.out st.text.(i)
    end
    else if kind = k_break then begin
      if st.box_top > 0 then begin
        let top = st.box_top - 1 in
        if st.box_fits.(top) || size <= st.space_left then break_same_line st
        else break_new_line st st.box_width.(top)
      end
    end
    else if kind = k_close then begin
      if st.box_top > 0 then st.box_top <- st.box_top - 1
    end
    else begin
      if margin - st.space_left > max_indent then pp_force_break_line st;
      let off = if kind = k_sys then 0 else 1 in
      if st.box_top = Array.length st.box_width then begin
        st.box_width <- grow st.box_width 0;
        st.box_fits <- grow st.box_fits false
      end;
      st.box_width.(st.box_top) <- st.space_left - off;
      st.box_fits.(st.box_top) <- size <= st.space_left;
      st.box_top <- st.box_top + 1
    end

  let rec advance_left st =
    if st.head < st.tail then begin
      let i = st.head land st.mask in
      let size = st.size.(i) in
      if size >= 0 || st.right_total - st.left_total >= st.space_left then begin
        st.head <- st.head + 1;
        format_pp_token st i (if size >= 0 then size else pp_infinity);
        st.left_total <- st.length.(i) + st.left_total;
        advance_left st
      end
    end

  let initialize_scan_stack st =
    st.scan_left.(0) <- -1;
    st.scan_top <- 1

  let scan_stack_push st left tok kind =
    if st.scan_top = Array.length st.scan_left then begin
      st.scan_left <- grow st.scan_left 0;
      st.scan_tok <- grow st.scan_tok 0;
      st.scan_kind <- grow st.scan_kind 0
    end;
    st.scan_left.(st.scan_top) <- left;
    st.scan_tok.(st.scan_top) <- tok;
    st.scan_kind.(st.scan_top) <- kind;
    st.scan_top <- st.scan_top + 1

  (* [set_size st true] fixes the size of the break on top of the scan
     stack, [false] that of the box; either pops it. A token already
     printed is left alone: Format would write a size nobody reads. *)
  let set_size st ty =
    let top = st.scan_top - 1 in
    if st.scan_left.(top) < st.left_total then initialize_scan_stack st
    else if (st.scan_kind.(top) = k_break) = ty then begin
      let tok = st.scan_tok.(top) in
      if tok >= st.head then begin
        let i = tok land st.mask in
        st.size.(i) <- st.right_total + st.size.(i)
      end;
      st.scan_top <- top
    end

  let scan_push st b kind length =
    let tok = pp_enqueue st kind (-st.right_total) length "" in
    if b then set_size st true;
    scan_stack_push st st.right_total tok kind

  (* The system box is queued with unknown size and scanned above the
     sentinel. *)
  let pp_make_formatter () =
    let st =
      {
        out = Buffer.create 1024;
        kind = Array.make 64 0;
        size = Array.make 64 0;
        length = Array.make 64 0;
        text = Array.make 64 "";
        mask = 63;
        head = 0;
        tail = 0;
        scan_left = Array.make 32 0;
        scan_tok = Array.make 32 0;
        scan_kind = Array.make 32 0;
        scan_top = 0;
        box_width = Array.make 32 0;
        box_fits = Array.make 32 false;
        box_top = 0;
        space_left = margin;
        left_total = 1;
        right_total = 1;
      }
    in
    let sys = pp_enqueue st k_sys (-1) 0 "" in
    initialize_scan_stack st;
    scan_stack_push st 1 sys k_sys;
    st

  let pp_print_string st s =
    let n = String.length s in
    ignore (pp_enqueue st k_text n n s);
    advance_left st

  let pp_open_box st = scan_push st false k_open 0
  let pp_print_space st = scan_push st true k_break 1

  let pp_close_box st =
    ignore (pp_enqueue st k_close 0 0 "");
    set_size st true;
    set_size st false

  (* Every box but the system one is closed. *)
  let pp_flush_queue st =
    st.right_total <- pp_infinity;
    advance_left st
end

let to_string s =
  let st = Layout.pp_make_formatter () in
  let rec emit = function
    | Atom a -> Layout.pp_print_string st a
    | List xs ->
        Layout.pp_open_box st;
        Layout.pp_print_string st "(";
        (match xs with
        | [] -> ()
        | x :: rest ->
            emit x;
            emit_rest rest);
        Layout.pp_print_string st ")";
        Layout.pp_close_box st
  and emit_rest = function
    | [] -> ()
    | x :: rest ->
        Layout.pp_print_space st;
        emit x;
        emit_rest rest
  in
  emit s;
  Layout.pp_flush_queue st;
  Buffer.contents st.Layout.out

exception Parse_error of string

(* A small reader: atoms are runs of non-delimiter characters; strings
   are quoted with OCaml escapes. *)
let parse_string (src : string) : t =
  let n = String.length src in
  let pos = ref 0 in
  let error fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt in
  let skip_ws () =
    while
      !pos < n && (src.[!pos] = ' ' || src.[!pos] = '\n' || src.[!pos] = '\t'
                  || src.[!pos] = '\r')
    do
      incr pos
    done
  in
  let read_quoted () =
    (* Assumes src.[!pos] = '"'. *)
    let start = !pos in
    incr pos;
    let rec scan () =
      if !pos >= n then error "unterminated string"
      else
        match src.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            pos := !pos + 2;
            scan ()
        | _ ->
            incr pos;
            scan ()
    in
    scan ();
    String.sub src start (!pos - start)
  in
  let is_delimiter = function
    | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> true
    | _ -> false
  in
  let rec read () =
    skip_ws ();
    if !pos >= n then error "unexpected end of input"
    else
      match src.[!pos] with
      | '(' ->
          incr pos;
          let rec items acc =
            skip_ws ();
            if !pos >= n then error "unclosed list"
            else if src.[!pos] = ')' then begin
              incr pos;
              List (List.rev acc)
            end
            else items (read () :: acc)
          in
          items []
      | ')' -> error "unexpected ')'"
      | '"' -> Atom (read_quoted ())
      | _ ->
          let start = !pos in
          while !pos < n && not (is_delimiter src.[!pos]) do
            incr pos
          done;
          Atom (String.sub src start (!pos - start))
  in
  let s = read () in
  skip_ws ();
  if !pos <> n then error "trailing input at offset %d" !pos;
  s

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let of_ident (i : Ident.t) = Atom (Ident.name i ^ "." ^ string_of_int (Ident.id i))

let rec of_ty (t : Types.t) : t =
  match t with
  | Types.Var a -> List [ Atom "tv"; of_ident a ]
  | Types.Con c -> List [ Atom "tc"; Atom c ]
  | Types.App (f, a) -> List [ Atom "tapp"; of_ty f; of_ty a ]
  | Types.Arrow (a, b) -> List [ Atom "->"; of_ty a; of_ty b ]
  | Types.Forall (a, b) -> List [ Atom "forall"; of_ident a; of_ty b ]

let of_var (v : var) : t = List [ of_ident v.v_name; of_ty v.v_ty ]

let of_lit (l : Literal.t) : t =
  match l with
  | Literal.Int n -> List [ Atom "int"; Atom (string_of_int n) ]
  | Literal.Char c -> List [ Atom "char"; Atom (string_of_int (Char.code c)) ]
  | Literal.String s -> List [ Atom "string"; Atom (Fmt.str "%S" s) ]

let rec of_expr (e : expr) : t =
  match e with
  | Var v -> List [ Atom "var"; of_var v ]
  | Lit l -> List [ Atom "lit"; of_lit l ]
  | Con (dc, phis, es) ->
      List
        (Atom "con" :: Atom dc.name
        :: List (List.map of_ty phis)
        :: List.map of_expr es)
  | Prim (op, es) ->
      List (Atom "prim" :: Atom (Primop.name op) :: List.map of_expr es)
  | App (f, a) -> List [ Atom "app"; of_expr f; of_expr a ]
  | TyApp (f, t) -> List [ Atom "tyapp"; of_expr f; of_ty t ]
  | Lam (x, b) -> List [ Atom "lam"; of_var x; of_expr b ]
  | TyLam (a, b) -> List [ Atom "tylam"; of_ident a; of_expr b ]
  | Let (NonRec (x, rhs), body) ->
      List [ Atom "let"; of_var x; of_expr rhs; of_expr body ]
  | Let (Strict (x, rhs), body) ->
      List [ Atom "let!"; of_var x; of_expr rhs; of_expr body ]
  | Let (Rec pairs, body) ->
      List
        [
          Atom "letrec";
          List
            (List.map (fun (x, rhs) -> List [ of_var x; of_expr rhs ]) pairs);
          of_expr body;
        ]
  | Case (scrut, alts) ->
      List (Atom "case" :: of_expr scrut :: List.map of_alt alts)
  | Join (JNonRec d, body) ->
      List [ Atom "join"; of_defn d; of_expr body ]
  | Join (JRec ds, body) ->
      List [ Atom "joinrec"; List (List.map of_defn ds); of_expr body ]
  | Jump (j, phis, es, ty) ->
      List
        (Atom "jump" :: of_var j
        :: List (List.map of_ty phis)
        :: of_ty ty :: List.map of_expr es)

and of_alt { alt_pat; alt_rhs } =
  match alt_pat with
  | PCon (dc, xs) ->
      List
        (Atom "pcon" :: Atom dc.name
        :: List (List.map of_var xs)
        :: [ of_expr alt_rhs ])
  | PLit l -> List [ Atom "plit"; of_lit l; of_expr alt_rhs ]
  | PDefault -> List [ Atom "pdefault"; of_expr alt_rhs ]

and of_defn (d : join_defn) =
  List
    [
      of_var d.j_var;
      List (List.map of_ident d.j_tyvars);
      List (List.map of_var d.j_params);
      of_expr d.j_rhs;
    ]

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

let error fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt

let to_ident = function
  | Atom s -> (
      match String.rindex_opt s '.' with
      | Some i ->
          let name = String.sub s 0 i in
          let id =
            try int_of_string (String.sub s (i + 1) (String.length s - i - 1))
            with _ -> error "bad ident %s" s
          in
          Ident.ensure_above id;
          ({ Ident.name; id } : Ident.t)
      | None -> error "bad ident %s" s)
  | List _ -> error "expected an ident atom"

let rec to_ty (s : t) : Types.t =
  match s with
  | List [ Atom "tv"; a ] -> Types.Var (to_ident a)
  | List [ Atom "tc"; Atom c ] -> Types.Con c
  | List [ Atom "tapp"; f; a ] -> Types.App (to_ty f, to_ty a)
  | List [ Atom "->"; a; b ] -> Types.Arrow (to_ty a, to_ty b)
  | List [ Atom "forall"; a; b ] -> Types.Forall (to_ident a, to_ty b)
  | _ -> error "bad type: %s" (to_string s)

let to_var = function
  | List [ name; ty ] -> { v_name = to_ident name; v_ty = to_ty ty }
  | s -> error "bad variable: %s" (to_string s)

let to_lit = function
  | List [ Atom "int"; Atom n ] -> Literal.Int (int_of_string n)
  | List [ Atom "char"; Atom c ] -> Literal.Char (Char.chr (int_of_string c))
  | List [ Atom "string"; Atom s ] -> Literal.String (Scanf.sscanf s "%S" Fun.id)
  | s -> error "bad literal: %s" (to_string s)

let primop_of_name name =
  match List.find_opt (fun op -> Primop.name op = name) Primop.all with
  | Some op -> op
  | None -> error "unknown primop %s" name

(** Reading constructors needs the datatype environment. *)
let rec to_expr (env : Datacon.env) (s : t) : expr =
  let expr = to_expr env in
  match s with
  | List [ Atom "var"; v ] -> Var (to_var v)
  | List [ Atom "lit"; l ] -> Lit (to_lit l)
  | List (Atom "con" :: Atom name :: List phis :: es) -> (
      match Datacon.find_con env name with
      | Some dc -> Con (dc, List.map to_ty phis, List.map expr es)
      | None -> error "unknown constructor %s" name)
  | List (Atom "prim" :: Atom name :: es) ->
      Prim (primop_of_name name, List.map expr es)
  | List [ Atom "app"; f; a ] -> App (expr f, expr a)
  | List [ Atom "tyapp"; f; t ] -> TyApp (expr f, to_ty t)
  | List [ Atom "lam"; x; b ] -> Lam (to_var x, expr b)
  | List [ Atom "tylam"; a; b ] -> TyLam (to_ident a, expr b)
  | List [ Atom "let"; x; rhs; body ] ->
      Let (NonRec (to_var x, expr rhs), expr body)
  | List [ Atom "let!"; x; rhs; body ] ->
      Let (Strict (to_var x, expr rhs), expr body)
  | List [ Atom "letrec"; List pairs; body ] ->
      Let
        ( Rec
            (List.map
               (function
                 | List [ x; rhs ] -> (to_var x, expr rhs)
                 | s -> error "bad letrec pair: %s" (to_string s))
               pairs),
          expr body )
  | List (Atom "case" :: scrut :: alts) ->
      Case (expr scrut, List.map (to_alt env) alts)
  | List [ Atom "join"; d; body ] -> Join (JNonRec (to_defn env d), expr body)
  | List [ Atom "joinrec"; List ds; body ] ->
      Join (JRec (List.map (to_defn env) ds), expr body)
  | List (Atom "jump" :: j :: List phis :: ty :: es) ->
      Jump (to_var j, List.map to_ty phis, List.map expr es, to_ty ty)
  | _ -> error "bad expression: %s" (to_string s)

and to_alt env = function
  | List [ Atom "pcon"; Atom name; List xs; rhs ] -> (
      match Datacon.find_con env name with
      | Some dc ->
          {
            alt_pat = PCon (dc, List.map to_var xs);
            alt_rhs = to_expr env rhs;
          }
      | None -> error "unknown constructor %s" name)
  | List [ Atom "plit"; l; rhs ] ->
      { alt_pat = PLit (to_lit l); alt_rhs = to_expr env rhs }
  | List [ Atom "pdefault"; rhs ] ->
      { alt_pat = PDefault; alt_rhs = to_expr env rhs }
  | s -> error "bad alternative: %s" (to_string s)

and to_defn env = function
  | List [ jv; List tvs; List ps; rhs ] ->
      {
        j_var = to_var jv;
        j_tyvars = List.map to_ident tvs;
        j_params = List.map to_var ps;
        j_rhs = to_expr env rhs;
      }
  | s -> error "bad join definition: %s" (to_string s)

(* ------------------------------------------------------------------ *)
(* Whole-program convenience                                           *)
(* ------------------------------------------------------------------ *)

(** Serialise an expression to a string. *)
let write (e : expr) : string = to_string (of_expr e)

(** Parse an expression back (constructors resolved in [env]). *)
let read (env : Datacon.env) (src : string) : expr =
  to_expr env (parse_string src)
