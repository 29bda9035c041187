(** S-expression serialisation of System F_J — the interface-file
    substrate: a complete, round-trippable textual encoding of Core.
    Uniques survive the round trip exactly, and the reader bumps the
    global supply so freshly allocated uniques never collide with
    loaded ones. *)

type t = Atom of string | List of t list

(** The layout [Format.asprintf] gives one hov box of indent 1 per
    list with a space break between elements, byte for byte, in closed
    form. With |L| a list's flat size and r the columns left on the
    line (margin 78): a list fits, all on its line, iff |L| < r where
    it opens; in a list that does not fit, the break before an element
    x starts a new line iff |x| + 2 > r (≥ for the last element),
    indented min(68, column of the list's '(' + 1); and a list opened
    past column 68 under a parent that does not fit first breaks the
    parent's line, if the parent's width exceeds r. {!write} lays Core
    out by the same rule, from the tree itself. *)
val to_string : t -> string

exception Parse_error of string

(** The text as a tree; [Parse_error] if it is not one. *)
val parse_string : string -> t

(** [int_between s i j] reads [s]'s bytes [i .. j - 1] as the integer
    [string_of_int] writes, and no other spelling of it: an optional
    '-', then digits with no leading zero. [Parse_error] otherwise. *)
val int_between : string -> int -> int -> int

(** Whole-expression convenience. The reader takes an ident's unique
    only in [string_of_int]'s spelling and only up to 2{^48}, so the
    supply it raises cannot wrap. *)

val write : Syntax.expr -> string
val read : Datacon.env -> string -> Syntax.expr
