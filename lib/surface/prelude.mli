(** The standard prelude, written in the surface language: list and
    arithmetic combinators (map, filter, folds, find/any — the paper's
    Sec. 5 examples verbatim). *)

(** The prelude source text. *)
val source : string

(** Compile the prelude followed by the given program. Positions in the
    {!Lexer.Lex_error}, {!Parser.Parse_error} and {!Infer.Type_error} it
    raises are lines of the given program, not of the concatenation. *)
val compile :
  ?datacons:Fj_core.Datacon.env ->
  string ->
  Fj_core.Datacon.env * Fj_core.Syntax.expr
