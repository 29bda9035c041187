(** User rewrite rules (GHC RULES, Sec. 8): first-order matching over
    application spines, with term and type holes. *)

type rule = {
  name : string;
  term_holes : Syntax.var list;
  ty_holes : Ident.t list;
  lhs : Syntax.expr;
  rhs : Syntax.expr;
}

val rule :
  name:string ->
  term_holes:Syntax.var list ->
  ty_holes:Ident.t list ->
  lhs:Syntax.expr ->
  rhs:Syntax.expr ->
  rule

type binding = {
  terms : Syntax.expr Ident.Map.t;
  types : Types.t Ident.Map.t;
}

(** One bottom-up pass; returns the rewritten term and the names of the
    rules fired (in order). *)
val rewrite : rule list -> Syntax.expr -> Syntax.expr * string list
