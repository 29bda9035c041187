(** The block intermediate representation: procedures whose bodies are
    instruction trees with labelled blocks. [Goto] (a lowered jump)
    binds block parameters and transfers control with no allocation;
    calls go through heap-allocated closures — the Sec. 2–3 codegen
    story. *)

module Ident = Fj_core.Ident

type label = Ident.t

type atom = AVar of Ident.t | ALit of Fj_core.Literal.t

type rhs =
  | RAtom of atom
  | RPrim of Fj_core.Primop.t * atom list
  | RAllocCon of string * int * atom list
  | RAllocClos of Ident.t * atom list
  | RProj of atom * int

type pat = PTag of string * Ident.t list | PLit of Fj_core.Literal.t | PAny

type block_expr =
  | Let of Ident.t * rhs * block_expr
  | LetRecClos of (Ident.t * Ident.t * atom list) list * block_expr
  | LetBlock of bool * (label * Ident.t list * block_expr) list * block_expr
  | Case of atom * (pat * block_expr) list
  | Goto of label * atom list
  | Return of atom
  | TailApply of atom * atom list
  | Apply of Ident.t * atom * atom list * block_expr

type code = {
  code_name : Ident.t;
  params : Ident.t list;
  captures : Ident.t list;
  body : block_expr;
}

type program = { codes : code Ident.Map.t; main : block_expr }

val pp_program : Format.formatter -> program -> unit
