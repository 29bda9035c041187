(** Capture-avoiding substitution over System F_J terms.

    A substitution maps term variables to expressions and type variables
    to types. Every binder encountered is refreshed (given a new unique)
    and recorded in the substitution, so the output never captures. A
    useful corollary is that [expr empty e] is a {e freshening} of [e]
    — an alpha-copy sharing no binders with the original — which is
    exactly what inlining a definition at several sites requires. The
    simplifier walks terms with its own scoped table instead, and
    renames only the binders it meets twice ({!Simplify}). *)

open Syntax

type t = { terms : expr Ident.Map.t; types : Types.t Ident.Map.t }

let empty = { terms = Ident.Map.empty; types = Ident.Map.empty }

(** Extend with a term-variable mapping. *)
let add_term x e s = { s with terms = Ident.Map.add x e s.terms }

(** Extend with a type-variable mapping. *)
let add_type a ty s = { s with types = Ident.Map.add a ty s.types }

let subst_ty s ty = Types.subst s.types ty

(* Binder-refreshing helpers. Each returns the refreshed binder and the
   extended substitution. *)

let clone_var s (v : var) =
  let v' = { v_name = Ident.refresh v.v_name; v_ty = subst_ty s v.v_ty } in
  (v', add_term v.v_name (Var v') s)

let clone_tyvar s a =
  let a' = Ident.refresh a in
  (a', add_type a (Types.Var a') s)

let clone_vars s vs =
  let rec go s acc = function
    | [] -> (List.rev acc, s)
    | v :: vs ->
        let v', s = clone_var s v in
        go s (v' :: acc) vs
  in
  go s [] vs

let clone_tyvars s tvs =
  let rec go s acc = function
    | [] -> (List.rev acc, s)
    | a :: tvs ->
        let a', s = clone_tyvar s a in
        go s (a' :: acc) tvs
  in
  go s [] tvs

(** Apply a substitution to an expression. *)
let rec expr (s : t) (e : expr) : expr =
  match e with
  | Var v -> (
      match Ident.Map.find_opt v.v_name s.terms with
      | Some e' -> e'
      | None -> Var { v with v_ty = subst_ty s v.v_ty })
  | Lit _ -> e
  | Con (dc, phis, es) ->
      Con (dc, List.map (subst_ty s) phis, List.map (expr s) es)
  | Prim (op, es) -> Prim (op, List.map (expr s) es)
  | App (f, a) -> App (expr s f, expr s a)
  | TyApp (f, phi) -> TyApp (expr s f, subst_ty s phi)
  | Lam (x, b) ->
      let x', s' = clone_var s x in
      Lam (x', expr s' b)
  | TyLam (a, b) ->
      let a', s' = clone_tyvar s a in
      TyLam (a', expr s' b)
  | Let (NonRec (x, rhs), body) ->
      let rhs = expr s rhs in
      let x', s' = clone_var s x in
      Let (NonRec (x', rhs), expr s' body)
  | Let (Strict (x, rhs), body) ->
      let rhs = expr s rhs in
      let x', s' = clone_var s x in
      Let (Strict (x', rhs), expr s' body)
  | Let (Rec pairs, body) ->
      let xs = List.map fst pairs in
      let xs', s' = clone_vars s xs in
      let pairs' =
        List.map2 (fun x' (_, rhs) -> (x', expr s' rhs)) xs' pairs
      in
      Let (Rec pairs', expr s' body)
  | Case (scrut, alts) -> Case (expr s scrut, List.map (alt s) alts)
  | Join (JNonRec d, body) ->
      let d_rhs_s = s in
      let d' = defn d_rhs_s d in
      let jv', s' = clone_var s d.j_var in
      Join (JNonRec { d' with j_var = jv' }, expr s' body)
  | Join (JRec ds, body) ->
      let jvs = List.map (fun d -> d.j_var) ds in
      let jvs', s' = clone_vars s jvs in
      let ds' =
        List.map2 (fun jv' d -> { (defn s' d) with j_var = jv' }) jvs' ds
      in
      Join (JRec ds', expr s' body)
  | Jump (j, phis, es, ty) ->
      let j' =
        match Ident.Map.find_opt j.v_name s.terms with
        | Some (Var v) -> v
        | Some _ ->
            invalid_arg
              "Subst.expr: label substituted by a non-variable expression"
        | None -> { j with v_ty = subst_ty s j.v_ty }
      in
      Jump (j', List.map (subst_ty s) phis, List.map (expr s) es, subst_ty s ty)

and alt s { alt_pat; alt_rhs } =
  match alt_pat with
  | PCon (dc, xs) ->
      let xs', s' = clone_vars s xs in
      { alt_pat = PCon (dc, xs'); alt_rhs = expr s' alt_rhs }
  | PLit _ | PDefault -> { alt_pat; alt_rhs = expr s alt_rhs }

and defn s (d : join_defn) =
  let tvs', s' = clone_tyvars s d.j_tyvars in
  let ps', s' = clone_vars s' d.j_params in
  { d with j_tyvars = tvs'; j_params = ps'; j_rhs = expr s' d.j_rhs }

(** Alpha-copy: refresh every binder in [e]. The result shares no
    binder uniques with [e]. *)
let freshen e = expr empty e

(** [beta_reduce x arg body] = [body{arg/x}] with capture avoidance. *)
let beta_reduce (x : var) (arg : expr) body =
  expr (add_term x.v_name arg empty) body

(** [ty_beta_reduce a phi body] = [body{phi/a}]. *)
let ty_beta_reduce a phi body = expr (add_type a phi empty) body
