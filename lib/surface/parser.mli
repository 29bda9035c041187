(** Recursive-descent parser for the surface language. *)

exception Parse_error of string * Ast.pos

(** Parse a whole program (a sequence of [data] and [def]
    declarations). *)
val parse : string -> Ast.program
