(** The equational theory of Fig. 4 as executable single-step rewrites:
    the specification form of the optimiser, used by the metatheory
    tests and by {!Erase}. Each axiom returns [Some e'] when it applies
    at the root. *)

(** One evaluation-context frame [F] of Fig. 1. *)
type frame =
  | FApp of Syntax.expr
  | FTyApp of Types.t
  | FCase of Syntax.alt list

(** [(\x. e) v = let x = v in e]. *)
val beta : Syntax.expr -> Syntax.expr option

(** [(/\a. e) phi = e{phi/a}]. *)
val beta_ty : Syntax.expr -> Syntax.expr option

(** Exhaustively inline a non-recursive value binding. *)
val inline : Syntax.expr -> Syntax.expr option

(** Drop a dead (non-strict) binding. *)
val drop : Syntax.expr -> Syntax.expr option

(** Substitute a join definition at its tail jumps; [None] if some
    jump to it is not a tail call. *)
val substitute_jumps :
  defn:Syntax.join_defn -> Syntax.expr -> Syntax.expr option

(** Inline a non-recursive join point at its (tail) jumps. *)
val jinline : Syntax.expr -> Syntax.expr option

(** Drop a dead join binding. *)
val jdrop : Syntax.expr -> Syntax.expr option

(** Case-of-known-constructor (and known literal). *)
val case_of_known : Syntax.expr -> Syntax.expr option

(** [E[case e of alts] = case e of {p -> E[rhs]}]. *)
val casefloat : frame -> Syntax.expr -> Syntax.expr option

(** [E[let b in e] = let b in E[e]]. *)
val float : frame -> Syntax.expr -> Syntax.expr option

(** [E[join jb in e] = join E[jb] in E[e]]. *)
val jfloat : frame -> Syntax.expr -> Syntax.expr option

(** [E[jump j es tau] : tau' = jump j es tau']. *)
val abort : frame -> Syntax.expr -> Syntax.expr option

(** The derived general form: push a frame through a maximal tail
    context, aborting at jumps. Always succeeds. *)
val commute : frame -> Syntax.expr -> Syntax.expr
