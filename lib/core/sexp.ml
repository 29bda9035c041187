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

(* The integer [string_of_int] writes for [s]'s bytes [i .. j - 1],
   and no other spelling of it: an optional '-', then digits with no
   leading zero. Accumulated negatively, so [min_int] reads back too. *)
let int_between s i j =
  let refuse () = raise (Parse_error "not string_of_int's spelling") in
  let neg = i < j && s.[i] = '-' in
  let d = if neg then i + 1 else i in
  if d >= j || (s.[d] = '0' && (j - d > 1 || neg)) then refuse ();
  let n = ref 0 in
  for k = d to j - 1 do
    match s.[k] with
    | '0' .. '9' as c ->
        let v = Char.code c - 48 in
        if !n < (min_int + v) / 10 then refuse ();
        n := (10 * !n) - v
    | _ -> refuse ()
  done;
  if neg then !n else if !n = min_int then refuse () else - !n

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

(* The writer's layout is what [Format.asprintf] made of an
   [@[<hov 1>(...)@]] box per list with [@ ] between elements, which
   every artifact was written with; test_sexp keeps that Format
   printer as an oracle and compares byte for byte. For this one token
   shape Format's queue machine has a closed form. With |L| = 2 +
   Σ|xᵢ| + (n − 1) the flat size of a list of n elements and r the
   columns left on the line (margin 78):
   - Fit: a list fits, and every break in it is a space, iff |L| < r
     where it opens, before any forced break. Strict, because Format
     counts a box whose size it does not know yet as infinitely large
     once the queued text reaches r.
   - Break: in a list that does not fit, the break before xᵢ starts a
     new line iff |xᵢ| + 2 > r, or |xᵢ| + 2 ≥ r when xᵢ is the last
     element. The new line is indented min(68, column of the list's
     '(' + 1).
   - Forced break: a list opened past column 68 inside a parent that
     does not fit first breaks the parent's line, if the parent's
     width (r at its '(', minus 1) exceeds r.
   One engine applies it, and an emitter drives it twice: the first
   walk records each list's flat size in preorder, the second prints.
   An element is its list's last when no flat size of the list is left
   after it, so no element count is kept. *)

let margin = 78
let max_indent = 68
let newline_spaces = "\n" ^ String.make max_indent ' '

type st = {
  mutable buf : Buffer.t;
  mutable measuring : bool;
  (* Per list, numbered in preorder: its flat size. While measuring, a
     running sum of its elements' sizes plus one each. *)
  mutable sizes : int array;
  mutable next : int;
  (* The open lists, two slots each. While measuring, the list's
     number. While printing, only the lists that do not fit: the
     column of the list's '(' and the flat size of its elements still
     to come, separators included. *)
  mutable stack : int array;
  mutable top : int;
  mutable col : int;
  (* How many lists deep the printer is inside a list that fits. *)
  mutable flat : int;
  (* The next element is the first of its list. *)
  mutable first : bool;
}

let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Count an element of flat size [size] in the open list (measuring). *)
let add_size st size =
  if st.top > 0 then begin
    let i = st.stack.(2 * (st.top - 1)) in
    st.sizes.(i) <- st.sizes.(i) + size + 1
  end

let space st =
  Buffer.add_char st.buf ' ';
  st.col <- st.col + 1

let newline st indent =
  Buffer.add_substring st.buf newline_spaces 0 (indent + 1);
  st.col <- indent

(* The break before an element of flat size [size] (printing). *)
let separate st size =
  if st.flat = 0 && st.top > 0 then begin
    let f = (2 * st.top) - 1 in
    let left = st.stack.(f) - size - if st.first then 0 else 1 in
    st.stack.(f) <- left;
    if not st.first then
      let r = margin - st.col in
      if size + 2 > r || (size + 2 = r && left = 0) then
        newline st (Int.min max_indent (st.stack.(f - 1) + 1))
      else space st
  end
  else if not st.first then space st;
  st.first <- false

let atom st s =
  let len = String.length s in
  if st.measuring then add_size st len
  else begin
    separate st len;
    Buffer.add_string st.buf s;
    st.col <- st.col + len
  end

let open_ st =
  let i = st.next in
  st.next <- i + 1;
  if st.measuring then begin
    if i = Array.length st.sizes then st.sizes <- grow st.sizes;
    st.sizes.(i) <- 0;
    if (2 * st.top) + 1 >= Array.length st.stack then st.stack <- grow st.stack;
    st.stack.(2 * st.top) <- i;
    st.top <- st.top + 1
  end
  else begin
    let size = st.sizes.(i) in
    separate st size;
    if st.flat > 0 then st.flat <- st.flat + 1
    else begin
      let fits = size < margin - st.col in
      (if st.col > max_indent && st.top > 0 then
         let parent = st.stack.((2 * st.top) - 2) in
         if st.col > parent + 1 then
           newline st (Int.min max_indent (parent + 1)));
      if fits then st.flat <- 1
      else begin
        (* Measuring pushed every list, so the stack is deep enough. *)
        st.stack.(2 * st.top) <- st.col;
        st.stack.((2 * st.top) + 1) <- size - 2;
        st.top <- st.top + 1
      end
    end;
    Buffer.add_char st.buf '(';
    st.col <- st.col + 1;
    st.first <- true
  end

let close st =
  if st.measuring then begin
    st.top <- st.top - 1;
    let i = st.stack.(2 * st.top) in
    (* Every element added at least one. *)
    let size = if st.sizes.(i) = 0 then 2 else st.sizes.(i) + 1 in
    st.sizes.(i) <- size;
    add_size st size
  end
  else begin
    Buffer.add_char st.buf ')';
    st.col <- st.col + 1;
    st.first <- false;
    if st.flat > 0 then st.flat <- st.flat - 1 else st.top <- st.top - 1
  end

(* Lay out what [emit] emits: measure, then print. The state starts
   small and grows; the output buffer is sized from the measured flat
   size. *)
let layout emit =
  let st =
    {
      buf = Buffer.create 16;
      measuring = true;
      sizes = Array.make 32 0;
      next = 0;
      stack = Array.make 32 0;
      top = 0;
      col = 0;
      flat = 0;
      first = true;
    }
  in
  emit st;
  if st.next > 0 then st.buf <- Buffer.create (st.sizes.(0) * 3 / 2);
  st.measuring <- false;
  st.next <- 0;
  emit st;
  Buffer.contents st.buf

let rec each st item = function [] -> () | x :: xs -> item st x; each st item xs

let rec emit_sexp st = function
  | Atom a -> atom st a
  | List xs -> open_ st; each st emit_sexp xs; close st

let to_string s = layout (fun st -> emit_sexp st s)

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* The atom [prefix ^ string_of_int n], written without building it;
   an ident's prefix is its name and a dot. *)
let number st prefix ~dot n =
  if n < 0 then atom st (prefix ^ (if dot then "." else "") ^ string_of_int n)
  else
    let len = String.length prefix + (if dot then 1 else 0) + digits n in
    if st.measuring then add_size st len
    else begin
      separate st len;
      Buffer.add_string st.buf prefix;
      if dot then Buffer.add_char st.buf '.';
      add_digits st.buf n;
      st.col <- st.col + len
    end

let ident st (i : Ident.t) = number st i.name ~dot:true i.id

let rec ty st (t : Types.t) =
  open_ st;
  (match t with
  | Types.Var a -> atom st "tv"; ident st a
  | Types.Con c -> atom st "tc"; atom st c
  | Types.App (f, a) -> atom st "tapp"; ty st f; ty st a
  | Types.Arrow (a, b) -> atom st "->"; ty st a; ty st b
  | Types.Forall (a, b) -> atom st "forall"; ident st a; ty st b);
  close st

(* A list of [item]s. *)
let items st item xs = open_ st; each st item xs; close st

let var st (v : var) = open_ st; ident st v.v_name; ty st v.v_ty; close st

let lit st (l : Literal.t) =
  open_ st;
  (match l with
  | Literal.Int n -> atom st "int"; number st "" ~dot:false n
  | Literal.Char c -> atom st "char"; number st "" ~dot:false (Char.code c)
  | Literal.String s -> atom st "string"; atom st (Fmt.str "%S" s));
  close st

let rec expr st (e : expr) =
  open_ st;
  (match e with
  | Var v -> atom st "var"; var st v
  | Lit l -> atom st "lit"; lit st l
  | Con (dc, phis, es) ->
      atom st "con"; atom st dc.name; items st ty phis; each st expr es
  | Prim (op, es) -> atom st "prim"; atom st (Primop.name op); each st expr es
  | App (f, a) -> atom st "app"; expr st f; expr st a
  | TyApp (f, t) -> atom st "tyapp"; expr st f; ty st t
  | Lam (x, b) -> atom st "lam"; var st x; expr st b
  | TyLam (a, b) -> atom st "tylam"; ident st a; expr st b
  | Let (NonRec (x, rhs), body) ->
      atom st "let"; var st x; expr st rhs; expr st body
  | Let (Strict (x, rhs), body) ->
      atom st "let!"; var st x; expr st rhs; expr st body
  | Let (Rec pairs, body) ->
      atom st "letrec"; items st pair pairs; expr st body
  | Case (scrut, alts) -> atom st "case"; expr st scrut; each st alt alts
  | Join (JNonRec d, body) -> atom st "join"; defn st d; expr st body
  | Join (JRec ds, body) -> atom st "joinrec"; items st defn ds; expr st body
  | Jump (j, phis, es, t) ->
      atom st "jump"; var st j; items st ty phis; ty st t; each st expr es);
  close st

and pair st (x, rhs) = open_ st; var st x; expr st rhs; close st

and alt st { alt_pat; alt_rhs } =
  open_ st;
  (match alt_pat with
  | PCon (dc, xs) -> atom st "pcon"; atom st dc.name; items st var xs
  | PLit l -> atom st "plit"; lit st l
  | PDefault -> atom st "pdefault");
  expr st alt_rhs;
  close st

and defn st (d : join_defn) =
  open_ st;
  var st d.j_var;
  items st ident d.j_tyvars;
  items st var d.j_params;
  expr st d.j_rhs;
  close st

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

let error fmt = Fmt.kstr (fun m -> raise (Parse_error m)) fmt

(* The largest unique the reader takes. Far below [max_int], so the
   supply it raises keeps room for 2^62 - 2^48 more draws. *)
let max_unique = 1 lsl 48

let to_ident = function
  | Atom s -> (
      match String.rindex_opt s '.' with
      | Some i -> (
          match int_between s (i + 1) (String.length s) with
          | id when id >= 0 && id <= max_unique ->
              Ident.ensure_above id;
              ({ Ident.name = String.sub s 0 i; id } : Ident.t)
          | _ | (exception Parse_error _) -> error "bad ident %s" s)
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
let write (e : expr) : string = layout (fun st -> expr st e)

(** Parse an expression back (constructors resolved in [env]). *)
let read (env : Datacon.env) (src : string) : expr =
  to_expr env (parse_string src)
