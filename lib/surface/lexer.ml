(** A hand-written lexer for the surface language. *)

type token =
  | INT of int
  | CHAR of char
  | STRING of string
  | LIDENT of string  (** lowercase identifier *)
  | UIDENT of string  (** uppercase identifier (constructor / tycon) *)
  | KW of string  (** keyword: data def let rec in case of if then else *)
  | OP of string  (** operator symbol *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | BACKSLASH
  | ARROW  (** [->] *)
  | EQUALS  (** [=] *)
  | UNDERSCORE
  | EOF

let pp_token ppf = function
  | INT n -> Fmt.pf ppf "integer %d" n
  | CHAR c -> Fmt.pf ppf "character %C" c
  | STRING s -> Fmt.pf ppf "string %S" s
  | LIDENT s | UIDENT s -> Fmt.pf ppf "identifier %s" s
  | KW s -> Fmt.pf ppf "keyword '%s'" s
  | OP s -> Fmt.pf ppf "operator '%s'" s
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | LBRACE -> Fmt.string ppf "'{'"
  | RBRACE -> Fmt.string ppf "'}'"
  | LBRACKET -> Fmt.string ppf "'['"
  | RBRACKET -> Fmt.string ppf "']'"
  | COMMA -> Fmt.string ppf "','"
  | SEMI -> Fmt.string ppf "';'"
  | BACKSLASH -> Fmt.string ppf "'\\'"
  | ARROW -> Fmt.string ppf "'->'"
  | EQUALS -> Fmt.string ppf "'='"
  | UNDERSCORE -> Fmt.string ppf "'_'"
  | EOF -> Fmt.string ppf "end of input"

exception Lex_error of string * Ast.pos

let is_keyword = function
  | "data" | "def" | "let" | "rec" | "in" | "case" | "of" | "if" | "then"
  | "else" ->
      true
  | _ -> false

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_op_char = function
  | '+' | '-' | '*' | '/' | '%' | '<' | '>' | '=' | ':' | '&' | '|' | '!' ->
      true
  | _ -> false

(** Tokenise a whole source string; returns tokens with positions. *)
let tokenize (src : string) : (token * Ast.pos) list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 and bol = ref 0 in
  let pos i : Ast.pos = { line = !line; col = i - !bol + 1 } in
  let error i msg = raise (Lex_error (msg, pos i)) in
  let emit i t = toks := (t, pos i) :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '{' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* block comment, non-nesting *)
      let start = !i in
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then error start "unterminated block comment"
        else if src.[!i] = '-' && src.[!i + 1] = '}' then i := !i + 2
        else begin
          if src.[!i] = '\n' then begin
            incr line;
            bol := !i + 1
          end;
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do
        incr i
      done;
      emit start (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if (c >= 'a' && c <= 'z') || c = '_' then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let s = String.sub src start (!i - start) in
      if s = "_" then emit start UNDERSCORE
      else if is_keyword s then emit start (KW s)
      else emit start (LIDENT s)
    end
    else if c >= 'A' && c <= 'Z' then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      emit start (UIDENT (String.sub src start (!i - start)))
    end
    else if c = '\'' then begin
      let start = !i in
      if !i + 3 < n && src.[!i + 1] = '\\' && src.[!i + 3] = '\'' then begin
        let e =
          match src.[!i + 2] with
          | 'n' -> '\n'
          | 't' -> '\t'
          | '\\' -> '\\'
          | '\'' -> '\''
          | c -> c
        in
        emit start (CHAR e);
        i := !i + 4
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' then begin
        emit start (CHAR src.[!i + 1]);
        i := !i + 3
      end
      else error start "bad character literal"
    end
    else if c = '"' then begin
      let start = !i in
      incr i;
      let buf = Buffer.create 16 in
      let rec scan () =
        if !i >= n then error start "unterminated string literal"
        else
          match src.[!i] with
          | '"' -> incr i
          | '\\' when !i + 1 < n ->
              let e =
                match src.[!i + 1] with
                | 'n' -> '\n'
                | 't' -> '\t'
                | c -> c
              in
              Buffer.add_char buf e;
              i := !i + 2;
              scan ()
          | c ->
              Buffer.add_char buf c;
              incr i;
              scan ()
      in
      scan ();
      emit start (STRING (Buffer.contents buf))
    end
    else
      match c with
      | '(' -> emit !i LPAREN; incr i
      | ')' -> emit !i RPAREN; incr i
      | '{' -> emit !i LBRACE; incr i
      | '}' -> emit !i RBRACE; incr i
      | '[' -> emit !i LBRACKET; incr i
      | ']' -> emit !i RBRACKET; incr i
      | ',' -> emit !i COMMA; incr i
      | ';' -> emit !i SEMI; incr i
      | '\\' -> emit !i BACKSLASH; incr i
      | _ when is_op_char c ->
          let start = !i in
          while !i < n && is_op_char src.[!i] do
            incr i
          done;
          let s = String.sub src start (!i - start) in
          (match s with
          | "->" -> emit start ARROW
          | "=" -> emit start EQUALS
          | _ -> emit start (OP s))
      | _ -> error !i (Fmt.str "unexpected character %C" c)
  done;
  emit (n - 1) EOF;
  List.rev !toks
