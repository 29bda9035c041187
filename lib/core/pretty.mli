(** Pretty-printing of F_J terms in the paper's notation
    ([join j x = rhs in body], [jump j @phi e tau]) — the Core dumps
    users pore over (Sec. 8). *)

(** Print a whole expression. *)
val pp : Format.formatter -> Syntax.expr -> unit

val to_string : Syntax.expr -> string
