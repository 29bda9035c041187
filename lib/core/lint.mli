(** Core Lint: the Fig. 2 typechecker for System F_J, including the
    join environment Δ and its resets. Run between passes to catch
    transformations that destroy typing or join points (Sec. 7). *)

type error = { message : string; context : Syntax.expr option }

val pp_error : Format.formatter -> error -> unit

val lint_result : Datacon.env -> Syntax.expr -> (Types.t, error) result
val well_typed : Datacon.env -> Syntax.expr -> bool
