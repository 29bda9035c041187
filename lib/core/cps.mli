(** A call-by-value CPS transform over the monomorphic, join-free
    fragment — the Sec. 8 foil. The output is ordinary F_J (Lint
    checks it), so the same optimisers can be compared on both styles:
    the tests show CSE and rewrite RULES that succeed in direct style
    and fail after CPS, exactly as the paper argues. *)

exception Unsupported of string

(** CPS-transform a whole program; the result is applied to the
    identity continuation, so it has the same type and value as the
    input. Raises {!Unsupported} on polymorphism, join points
    (erase first) or strict bindings. *)
val transform : Syntax.expr -> Syntax.expr

(** Count syntactic lambdas (the administrative blow-up measure). *)
val count_lams : Syntax.expr -> int
