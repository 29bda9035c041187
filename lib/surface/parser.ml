(** Recursive-descent parser for the surface language.

    Grammar (informal; literal tokens quoted with single quotes):

    {v
    program := decl*
    decl    := 'data' UIDENT lident* '=' condecl ('|' condecl)*
             | 'def' lident lident* '=' expr
    condecl := UIDENT tyatom*
    ty      := tyapp ('->' ty)?
    tyapp   := tyatom+
    tyatom  := lident | UIDENT | '(' ty ')'
    expr    := backslash lident+ '->' expr
             | 'let' ['rec'] lident lident* '=' expr 'in' expr
             | 'case' expr 'of' lbrace alt (';' alt)* [';'] rbrace
             | 'if' expr 'then' expr 'else' expr
             | opexpr
    alt     := pat '->' expr
    pat     := UIDENT lident* | INT | CHAR | '_' | '(' lident ',' lident ')'
    opexpr  := operator precedence over apps, loosest first:
               or, and, comparisons, cons (right), additive,
               multiplicative, application
    atom    := INT | CHAR | STRING | lident | UIDENT | '(' expr ')'
             | '(' expr ',' expr ')' | list brackets
    v} *)

open Ast
open Lexer

exception Parse_error of string * pos

type state = { mutable toks : (token * pos) list }

let peek st = match st.toks with [] -> (EOF, { line = 0; col = 0 }) | t :: _ -> t
let pos_of st = snd (peek st)
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let error st fmt =
  Fmt.kstr (fun m -> raise (Parse_error (m, pos_of st))) fmt

let expect st tok what =
  let t, _ = peek st in
  if t = tok then advance st
  else error st "expected %s, found %a" what pp_token t

let lident st =
  match peek st with
  | LIDENT s, _ ->
      advance st;
      s
  | t, _ -> error st "expected an identifier, found %a" pp_token t

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec parse_ty st : sty =
  let lhs = parse_tyapp st in
  match peek st with
  | ARROW, _ ->
      advance st;
      SArrow (lhs, parse_ty st)
  | _ -> lhs

and parse_tyapp st : sty =
  let head = parse_tyatom st in
  let rec args acc =
    match peek st with
    | (LIDENT _ | UIDENT _ | LPAREN), _ -> args (parse_tyatom st :: acc)
    | _ -> List.rev acc
  in
  let args = args [] in
  match (head, args) with
  | _, [] -> head
  | SCon (c, []), args -> SCon (c, args)
  | _ -> error st "type variables cannot be applied"

and parse_tyatom st : sty =
  match peek st with
  | LIDENT s, _ ->
      advance st;
      SVar s
  | UIDENT s, _ ->
      advance st;
      SCon (s, [])
  | LPAREN, _ ->
      advance st;
      let t = parse_ty st in
      expect st RPAREN "')'";
      t
  | t, _ -> error st "expected a type, found %a" pp_token t

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let mk pos it : expr = { it; pos }

let rec parse_expr st : expr =
  let p = pos_of st in
  match peek st with
  | BACKSLASH, _ ->
      advance st;
      let params = parse_params st in
      if params = [] then error st "lambda needs at least one parameter";
      expect st ARROW "'->'";
      mk p (ELam (params, parse_expr st))
  | KW "let", _ ->
      advance st;
      let recursive =
        match peek st with
        | KW "rec", _ ->
            advance st;
            true
        | _ -> false
      in
      let name = lident st in
      let params = parse_params st in
      expect st EQUALS "'='";
      let rhs = parse_expr st in
      expect st (KW "in") "'in'";
      let body = parse_expr st in
      mk p (ELet { recursive; name; params; rhs; body })
  | KW "case", _ ->
      advance st;
      let scrut = parse_expr st in
      expect st (KW "of") "'of'";
      expect st LBRACE "'{'";
      let alts = parse_alts st in
      expect st RBRACE "'}'";
      mk p (ECase (scrut, alts))
  | KW "if", _ ->
      advance st;
      let c = parse_expr st in
      expect st (KW "then") "'then'";
      let t = parse_expr st in
      expect st (KW "else") "'else'";
      let e = parse_expr st in
      mk p (EIf (c, t, e))
  | _ -> parse_or st

and parse_params st =
  let rec go acc =
    match peek st with
    | LIDENT s, _ ->
        advance st;
        go (s :: acc)
    | UNDERSCORE, _ ->
        advance st;
        go ("_" :: acc)
    | _ -> List.rev acc
  in
  go []

and parse_alts st =
  let alt () =
    let pat = parse_pat st in
    expect st ARROW "'->'";
    let rhs = parse_expr st in
    (pat, rhs)
  in
  let rec more acc =
    match peek st with
    | SEMI, _ -> (
        advance st;
        match peek st with
        | RBRACE, _ -> List.rev acc
        | _ -> more (alt () :: acc))
    | _ -> List.rev acc
  in
  more [ alt () ]

and parse_pat st : pat =
  match peek st with
  | UIDENT s, _ ->
      advance st;
      PCon (s, parse_params st)
  | INT n, _ ->
      advance st;
      PInt n
  | CHAR c, _ ->
      advance st;
      PChar c
  | UNDERSCORE, _ ->
      advance st;
      PWild
  | OP "-", _ ->
      advance st;
      (match peek st with
      | INT n, _ ->
          advance st;
          PInt (-n)
      | t, _ -> error st "expected an integer after '-', found %a" pp_token t)
  | LPAREN, _ ->
      advance st;
      let a = lident st in
      expect st COMMA "','";
      let b = lident st in
      expect st RPAREN "')'";
      PTuple (a, b)
  | t, _ -> error st "expected a pattern, found %a" pp_token t

(* Operator precedence, loosest first. *)
and parse_or st =
  let lhs = parse_and st in
  match peek st with
  | OP "||", p ->
      advance st;
      mk p (EBinop (Or, lhs, parse_or st))
  | _ -> lhs

and parse_and st =
  let lhs = parse_cmp st in
  match peek st with
  | OP "&&", p ->
      advance st;
      mk p (EBinop (And, lhs, parse_and st))
  | _ -> lhs

and parse_cmp st =
  let lhs = parse_cons st in
  let op name =
    match name with
    | "==" -> Some Eq
    | "/=" -> Some Ne
    | "<" -> Some Lt
    | "<=" -> Some Le
    | ">" -> Some Gt
    | ">=" -> Some Ge
    | _ -> None
  in
  match peek st with
  | OP s, p when op s <> None ->
      advance st;
      let rhs = parse_cons st in
      mk p (EBinop (Option.get (op s), lhs, rhs))
  | _ -> lhs

and parse_cons st =
  let lhs = parse_additive st in
  match peek st with
  | OP ":", p ->
      advance st;
      mk p (EBinop (Cons, lhs, parse_cons st))
  | _ -> lhs

and parse_additive st =
  let rec go lhs =
    match peek st with
    | OP "+", p ->
        advance st;
        go (mk p (EBinop (Add, lhs, parse_multiplicative st)))
    | OP "-", p ->
        advance st;
        go (mk p (EBinop (Sub, lhs, parse_multiplicative st)))
    | _ -> lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go lhs =
    match peek st with
    | OP "*", p ->
        advance st;
        go (mk p (EBinop (Mul, lhs, parse_app st)))
    | OP "/", p ->
        advance st;
        go (mk p (EBinop (Div, lhs, parse_app st)))
    | OP "%", p ->
        advance st;
        go (mk p (EBinop (Mod, lhs, parse_app st)))
    | _ -> lhs
  in
  go (parse_app st)

and parse_app st =
  (* unary minus *)
  match peek st with
  | OP "-", p ->
      advance st;
      mk p (ENeg (parse_app st))
  | _ ->
      let head = parse_atom st in
      let rec go acc =
        match peek st with
        | (INT _ | CHAR _ | STRING _ | LIDENT _ | UIDENT _ | LPAREN | LBRACKET), p
          ->
            let arg = parse_atom st in
            go (mk p (EApp (acc, arg)))
        | _ -> acc
      in
      go head

and parse_atom st : expr =
  let p = pos_of st in
  match peek st with
  | INT n, _ ->
      advance st;
      mk p (EInt n)
  | CHAR c, _ ->
      advance st;
      mk p (EChar c)
  | STRING s, _ ->
      advance st;
      mk p (EStr s)
  | LIDENT s, _ ->
      advance st;
      mk p (EVar s)
  | UIDENT s, _ ->
      advance st;
      mk p (ECon s)
  | LBRACKET, _ ->
      advance st;
      let rec elems acc =
        match peek st with
        | RBRACKET, _ ->
            advance st;
            List.rev acc
        | COMMA, _ ->
            advance st;
            elems (parse_expr st :: acc)
        | _ when acc = [] -> elems (parse_expr st :: acc)
        | t, _ -> error st "expected ',' or ']', found %a" pp_token (t)
      in
      mk p (EList (elems []))
  | LPAREN, _ -> (
      advance st;
      let e = parse_expr st in
      match peek st with
      | COMMA, _ ->
          advance st;
          let e2 = parse_expr st in
          expect st RPAREN "')'";
          mk p (ETuple (e, e2))
      | RPAREN, _ ->
          advance st;
          e
      | t, _ -> error st "expected ')' or ',', found %a" pp_token t)
  | t, _ -> error st "expected an expression, found %a" pp_token t

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_decl st : decl =
  let p = pos_of st in
  match peek st with
  | KW "data", _ ->
      advance st;
      let name =
        match peek st with
        | UIDENT s, _ ->
            advance st;
            s
        | t, _ -> error st "expected a type name, found %a" pp_token t
      in
      let tyvars = parse_params st in
      expect st EQUALS "'='";
      let condecl () =
        match peek st with
        | UIDENT s, _ ->
            advance st;
            let rec fields acc =
              match peek st with
              | (LIDENT _ | UIDENT _ | LPAREN), _ ->
                  fields (parse_tyatom st :: acc)
              | _ -> List.rev acc
            in
            (s, fields [])
        | t, _ -> error st "expected a constructor, found %a" pp_token t
      in
      let rec cons acc =
        match peek st with
        | OP "|", _ ->
            advance st;
            cons (condecl () :: acc)
        | _ -> List.rev acc
      in
      DData { name; tyvars; cons = cons [ condecl () ]; pos = p }
  | KW "def", _ ->
      advance st;
      let name = lident st in
      let params = parse_params st in
      expect st EQUALS "'='";
      let rhs = parse_expr st in
      DDef { name; params; rhs; pos = p }
  | t, _ -> error st "expected 'data' or 'def', found %a" pp_token t

(** Parse a whole program. *)
let parse (src : string) : program =
  let st = { toks = Lexer.tokenize src } in
  let rec go acc =
    match peek st with
    | EOF, _ -> List.rev acc
    | SEMI, _ ->
        advance st;
        go acc
    | _ -> go (parse_decl st :: acc)
  in
  go []
