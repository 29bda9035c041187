(** Hindley–Milner inference and elaboration to System F_J: top-level
    defs are generalized into [/\a] binders; occurrences become type
    applications; local lets are monomorphic. The output contains no
    join points — those are inferred later by contification. *)

exception Type_error of string * Ast.pos

type checked = {
  env : Fj_core.Datacon.env;
  defs : (string * Fj_core.Syntax.var * Fj_core.Syntax.expr) list;
  main : Fj_core.Syntax.expr;
}

(** What the declarations checked so far leave in scope: the datatype
    environment, the top-level type schemes and the elaborated
    definitions. A check reads a scope and never writes to it, so one
    scope can start any number of checks. *)
type scope

(** The scope before the first declaration, over the given datatypes. *)
val initial : Fj_core.Datacon.env -> scope

(** Check declarations in order, starting from the given scope; each
    sees the scope and the declarations before it. *)
val check_decls : scope -> Ast.program -> scope

(** {!check_decls}, then require a [main] (the last one defined). *)
val check_from : scope -> Ast.program -> checked

(** Typecheck and elaborate a parsed program (requires a [main]):
    {!check_from} the {!initial} scope. *)
val check_program : ?datacons:Fj_core.Datacon.env -> Ast.program -> checked

(** Link into one closed core expression (lets around [main]). *)
val link : checked -> Fj_core.Syntax.expr

(** Parse + check + link. Returns the datatype environment (including
    source [data] declarations) and the closed program. *)
val compile :
  ?datacons:Fj_core.Datacon.env ->
  string ->
  Fj_core.Datacon.env * Fj_core.Syntax.expr
