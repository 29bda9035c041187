(** Capture-avoiding substitution: every binder passed is refreshed, so
    [expr empty e] is an alpha-copy sharing no binders with [e]. *)

type t

val empty : t
val add_term : Ident.t -> Syntax.expr -> t -> t
val add_type : Ident.t -> Types.t -> t -> t

(** Apply a substitution to an expression. *)
val expr : t -> Syntax.expr -> Syntax.expr

(** Apply to one join definition (cloning its binders). *)
val defn : t -> Syntax.join_defn -> Syntax.join_defn

(** Alpha-copy with entirely fresh binders. *)
val freshen : Syntax.expr -> Syntax.expr

(** [beta_reduce x arg body] = [body{arg/x}]. *)
val beta_reduce : Syntax.var -> Syntax.expr -> Syntax.expr -> Syntax.expr

(** [ty_beta_reduce a phi body] = [body{phi/a}]. *)
val ty_beta_reduce : Ident.t -> Types.t -> Syntax.expr -> Syntax.expr
