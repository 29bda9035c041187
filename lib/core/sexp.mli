(** S-expression serialisation of System F_J — the interface-file
    substrate: a complete, round-trippable textual encoding of Core.
    Uniques survive the round trip exactly, and the reader bumps the
    global supply so freshly allocated uniques never collide with
    loaded ones. *)

type t = Atom of string | List of t list

(** One hov box of indent 1 per list, a space break between elements,
    margin 78: byte for byte the layout [Format.asprintf] gives that
    box structure, which every written artifact uses. *)
val to_string : t -> string

exception Parse_error of string

val parse_string : string -> t

(** Writers. *)

val of_ty : Types.t -> t
val of_expr : Syntax.expr -> t

(** Readers (constructors resolved in the datatype environment). *)

val to_ty : t -> Types.t
val to_expr : Datacon.env -> t -> Syntax.expr

(** Whole-expression convenience. *)

val write : Syntax.expr -> string
val read : Datacon.env -> string -> Syntax.expr
