(** Abstract syntax of System F_J terms (Fig. 1 of the paper): System F
    with datatypes, (recursive and strict) lets, case, and the paper's
    two new constructs — join-point bindings and jumps. Join binders
    are ordinary variables whose type is [forall a. sigmas -> forall
    r. r], as in the GHC implementation (Sec. 7). *)

(** A term-variable binder: identifier plus type. *)
type var = { v_name : Ident.t; v_ty : Types.t }

type expr =
  | Var of var  (** Variable occurrence. *)
  | Lit of Literal.t  (** Unboxed literal. *)
  | Con of Datacon.t * Types.t list * expr list
      (** Saturated constructor application [K phis es]. *)
  | Prim of Primop.t * expr list  (** Saturated primitive operation. *)
  | App of expr * expr
  | TyApp of expr * Types.t
  | Lam of var * expr
  | TyLam of Ident.t * expr
  | Let of bind * expr
  | Case of expr * alt list
  | Join of jbind * expr  (** [join jb in u]. *)
  | Jump of var * Types.t list * expr list * Types.t
      (** [jump j phis es tau] — [tau] is the claimed result type
          (arbitrary: a jump never returns to its context). *)

and bind =
  | NonRec of var * expr
  | Strict of var * expr
      (** Demand-certified strict binding ([let!]): the rhs is
          evaluated to WHNF before the body (see {!Demand}). *)
  | Rec of (var * expr) list

(** One join definition [j tyvars params = rhs]; [j_var]'s type is
    always {!Types.join_point_ty} of the parameters. *)
and join_defn = {
  j_var : var;
  j_tyvars : Ident.t list;
  j_params : var list;
  j_rhs : expr;
}

and jbind = JNonRec of join_defn | JRec of join_defn list

and alt = { alt_pat : pat; alt_rhs : expr }

and pat =
  | PCon of Datacon.t * var list
  | PLit of Literal.t
  | PDefault

(** {1 Smart constructors} *)

val mk_var : string -> Types.t -> var

(** New unique, same name hint and type. *)
val refresh_var : var -> var

val var_equal : var -> var -> bool

(** Curried application [f e1 ... en]. *)
val apps : expr -> expr list -> expr

val ty_apps : expr -> Types.t list -> expr
val lams : var list -> expr -> expr
val ty_lams : Ident.t list -> expr -> expr

(** Decompose an application spine into head and arguments in order. *)
val collect_args :
  expr -> expr * [ `Ty of Types.t | `Val of expr ] list

(** Strip leading value/type lambdas, in order. *)
val collect_binders :
  expr -> [ `Ty of Ident.t | `Val of var ] list * expr

val join_defns : jbind -> join_defn list
val bind_pairs : bind -> (var * expr) list
val binders_of_bind : bind -> var list
val binders_of_jbind : jbind -> var list
val pat_binders : pat -> var list

(** A fresh ⊥-typed join binder for the given parameters. *)
val mk_join_var : string -> Ident.t list -> var list -> var

(** {1 Sharing maps}

    A pass that changes nothing returns its input itself, so that
    {!Guard} can tell by [==] that there is nothing to check again.
    These maps return their argument itself when [f] returned every
    subterm physically unchanged, and rebuild only the path to what
    changed. The order they visit in is part of every artifact's bytes
    (a pass can tick, record a decision or draw a unique at each node),
    so each states it. *)

(** [List.map f xs], first element first, but [xs] itself when [f]
    returned every element unchanged. *)
val map_shared : ('a -> 'a) -> 'a list -> 'a list

(** [f] over the alternatives' right-hand sides, first to last. *)
val map_alts : (expr -> expr) -> alt list -> alt list

(** [f] over the binding's right-hand sides, first to last. *)
val map_jbind : (expr -> expr) -> jbind -> jbind

(** [f] over [e]'s immediate subterms. An application's argument goes
    before its function, a [let]'s body before its binding, a [case]'s
    alternatives before its scrutinee (right to left, the order in
    which OCaml evaluates [App (go f, go a)]), but a [join]'s
    right-hand sides before its body. Lists go first to last. *)
val map_subterms : (expr -> expr) -> expr -> expr

(** {1 Predicates} *)

(** Weak head normal forms (the [inline] axiom's values). *)
val is_whnf : expr -> bool

(** Expressions free to duplicate (variables, literals, nullary
    constructors, type applications thereof). *)
val is_trivial : expr -> bool

(** {1 Measures and variables} *)

(** Syntax-node count (inlining heuristics). *)
val size : expr -> int

(** Statistics of the term at a pass boundary: how big it is, how
    many join points it binds, how deep it nests, and roughly what it
    costs to {e hold} in the OCaml heap — the denominator behind "which
    pass allocates" (a pass whose GC delta dwarfs the tree it returned
    is churning, not building). *)
type measure = {
  m_size : int;  (** {!size}. *)
  m_joins : int;
      (** Join-point definitions (each member of a recursive group
          counts once). *)
  m_nodes : int;
      (** Every AST constructor, including the type-level ones that
          {!size} ignores (TyApp/TyLam) — the true node count. *)
  m_depth : int;  (** Maximum constructor-nesting depth; >= 1. *)
  m_heap_words : int;
      (** Estimated OCaml heap words the tree occupies: one header
          word plus one word per field for each block, 3 words per
          binder record and list cons cell. An estimate (types are
          counted shallowly), but a {e consistent} one: deltas across
          a pass are meaningful. *)
}

(** One traversal computing every component; it allocates only its
    result and a constant-size accumulator. *)
val measure : expr -> measure

(** Free term variables, including free labels. *)
val free_vars : expr -> Ident.Set.t

(** Free type variables. *)
val free_ty_vars : expr -> Ident.Set.t

(** [occurs x e] iff [x] is in [free_vars e]; the walk stops at the
    first free occurrence and allocates nothing. *)
val occurs : Ident.t -> expr -> bool

(** [occurrences ~upto x e]: the number of free occurrences of [x] in
    [e] — {!Occur}'s [count] — counted no further than [upto]. Same
    walk as {!occurs}. *)
val occurrences : upto:int -> Ident.t -> expr -> int

(** A total order whose equality is exactly that of the {!Pretty}
    printouts: variables by {!Ident} key, types, literals, constructors
    and primops structurally, and nothing the printer omits (the types
    of occurrences, case-pattern binders and join labels). What CSE and
    a rule's repeated hole mean by "the same expression". *)
val compare_expr : expr -> expr -> int

exception Ill_typed of string

(** The type of a {e well-typed} expression (cf. GHC's [exprType]);
    raises {!Ill_typed} on broken terms — use {!Lint} to check. *)
val ty_of : expr -> Types.t
