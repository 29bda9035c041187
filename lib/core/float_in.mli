(** The Float In pass: move let bindings toward their use sites
    (enabling contification, cf. the Moby staging of Sec. 4). Never
    pushes under a lambda, into join/letrec right-hand sides, or into
    the head of a call (un-saturation, Sec. 7). *)

val run : Syntax.expr -> Syntax.expr
