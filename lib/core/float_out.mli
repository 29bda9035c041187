(** The Float Out pass (light full laziness): move closed let bindings
    out of lambdas. Join bindings are never moved (Sec. 7). *)

val run : Syntax.expr -> Syntax.expr
