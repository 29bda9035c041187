(** User-written rewrite rules (GHC's RULES pragmas, Sec. 8–9).

    Stream fusion hinges on rules like

    {v "stream/unstream"  forall s. stream (unstream s) = s v}

    The paper argues such rules are easy to state and match in a
    direct-style IR precisely because nested applications stay visible
    (in CPS the pattern is smeared across continuations).

    A rule is a pair of templates over {e pattern variables} (term
    holes) and {e pattern type variables} (type holes). Matching is
    purely structural on application spines; a hole matches any
    subterm, consistently across repeated holes (first-order matching,
    the same design point as GHC's rule matcher; repeated holes must
    match the same expression, see {!match_rule}). *)

open Syntax

type rule = {
  name : string;
  term_holes : var list;  (** [forall s.] — free term pattern vars. *)
  ty_holes : Ident.t list;  (** [forall a.] — free type pattern vars. *)
  lhs : expr;
  rhs : expr;
}

(** Build a rule. The holes must appear free in [lhs]; every hole free
    in [rhs] must be bound by [lhs]. *)
let rule ~name ~term_holes ~ty_holes ~lhs ~rhs =
  { name; term_holes; ty_holes; lhs; rhs }

type binding = {
  terms : expr Ident.Map.t;
  types : Types.t Ident.Map.t;
}

let empty_binding = { terms = Ident.Map.empty; types = Ident.Map.empty }

(* First-order matching of [pat] against [e]. Pattern variables match
   any term; a repeated pattern variable requires its matches to be the
   same expression under {!Syntax.compare_expr} — they would print the
   same, binders included, so this is stricter than alpha-equality.
   Patterns are binder-free in practice; any non-spine form in a
   pattern simply fails to match. *)
let match_rule (r : rule) (e : expr) : binding option =
  let is_term_hole v =
    List.exists (fun (h : var) -> Ident.equal h.v_name v.v_name) r.term_holes
  in
  let is_ty_hole a = List.exists (Ident.equal a) r.ty_holes in
  let exception No_match in
  let bind_term b (v : var) e =
    match Ident.Map.find_opt v.v_name b.terms with
    | Some e' ->
        (* Repeated hole: the same expression, binders and all. *)
        if Syntax.compare_expr e e' = 0 then b else raise No_match
    | None -> { b with terms = Ident.Map.add v.v_name e b.terms }
  in
  let bind_ty b a t =
    match Ident.Map.find_opt a b.types with
    | Some t' -> if Types.equal t t' then b else raise No_match
    | None -> { b with types = Ident.Map.add a t b.types }
  in
  let rec go b pat e =
    match (pat, e) with
    | Var v, _ when is_term_hole v -> bind_term b v e
    | Var v, Var w when Ident.equal v.v_name w.v_name -> b
    | Lit l, Lit l' when Literal.equal l l' -> b
    | Con (d, phis, es), Con (d', phis', es')
      when Datacon.equal d d' && List.length es = List.length es' ->
        let b = List.fold_left2 go_ty b phis phis' in
        List.fold_left2 go b es es'
    | Prim (op, es), Prim (op', es')
      when Primop.equal op op' && List.length es = List.length es' ->
        List.fold_left2 go b es es'
    | App (f, a), App (f', a') -> go (go b f f') a a'
    | TyApp (f, t), TyApp (f', t') -> go_ty (go b f f') t t'
    | _ -> raise No_match
  and go_ty b pt t =
    match pt with
    | Types.Var a when is_ty_hole a -> bind_ty b a t
    | _ -> if Types.equal pt t then b else raise No_match
  in
  match go empty_binding r.lhs e with
  | b -> Some b
  | exception No_match -> None

(** Apply the first matching rule at the root of [e]. *)
let apply_at (rules : rule list) (e : expr) : (string * expr) option =
  List.find_map
    (fun r ->
      match match_rule r e with
      | None -> None
      | Some b ->
          let s =
            Ident.Map.fold
              (fun x e s -> Subst.add_term x e s)
              b.terms
              (Ident.Map.fold
                 (fun a t s -> Subst.add_type a t s)
                 b.types Subst.empty)
          in
          Some (r.name, Subst.expr s (Subst.freshen r.rhs)))
    rules

(** One bottom-up pass applying [rules] everywhere; returns the new
    term and the names of the rules fired. *)
let rewrite (rules : rule list) (e : expr) : expr * string list =
  let fired = ref [] in
  let rec go e =
    let e =
      match e with
      | Var _ | Lit _ -> e
      | Con (d, phis, es) -> Con (d, phis, List.map go es)
      | Prim (op, es) -> Prim (op, List.map go es)
      | App (f, a) -> App (go f, go a)
      | TyApp (f, t) -> TyApp (go f, t)
      | Lam (x, b) -> Lam (x, go b)
      | TyLam (a, b) -> TyLam (a, go b)
      | Let (NonRec (x, rhs), body) -> Let (NonRec (x, go rhs), go body)
      | Let (Strict (x, rhs), body) -> Let (Strict (x, go rhs), go body)
      | Let (Rec pairs, body) ->
          Let (Rec (List.map (fun (x, rhs) -> (x, go rhs)) pairs), go body)
      | Case (scrut, alts) ->
          Case (go scrut, List.map (fun a -> { a with alt_rhs = go a.alt_rhs }) alts)
      | Join (jb, body) ->
          let jb' =
            match jb with
            | JNonRec d -> JNonRec { d with j_rhs = go d.j_rhs }
            | JRec ds ->
                JRec (List.map (fun d -> { d with j_rhs = go d.j_rhs }) ds)
          in
          Join (jb', go body)
      | Jump (j, phis, es, ty) -> Jump (j, phis, List.map go es, ty)
    in
    match apply_at rules e with
    | Some (name, e') ->
        fired := name :: !fired;
        go e'
    | None -> e
  in
  let e' = go e in
  (e', List.rev !fired)
