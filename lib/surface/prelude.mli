(** The standard prelude, written in the surface language: list and
    arithmetic combinators (map, filter, folds, find/any — the paper's
    Sec. 5 examples verbatim). *)

(** The prelude source text. *)
val source : string

(** Compile the given program after the prelude. The prelude is
    checked once per process; each call parses and checks only the
    program, so the {!Lexer.Lex_error}, {!Parser.Parse_error} and
    {!Infer.Type_error} it raises carry the program's own positions.
    Under a fresh supply the result is what compiling the prelude's
    text followed by the program would give. *)
val compile : string -> Fj_core.Datacon.env * Fj_core.Syntax.expr
