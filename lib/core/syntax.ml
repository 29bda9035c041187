(** Abstract syntax of System F_J terms (Fig. 1 of the paper).

    The term language is System F with datatypes, [let] (possibly
    recursive), [case], and the paper's two new constructs:

    - [Join (jb, body)] — a join-point binding [join jb in body];
    - [Jump (j, phis, args, ty)] — a jump [jump j phis args ty], where
      [ty] is the type the whole jump expression claims (rule JUMP lets
      a jump claim any type, since it never returns).

    Following the GHC implementation (Sec. 7), a join point's binder is
    an ordinary {!var} whose type is [forall a. sigmas -> forall r. r];
    the [Join]/[Jump] constructors are what distinguish it
    syntactically.

    Beyond the paper we add literals and saturated primops (see
    DESIGN.md): they are orthogonal to join points and required for
    realistic benchmarks. *)

(** A term-variable binder: an identifier together with its type. *)
type var = { v_name : Ident.t; v_ty : Types.t }

type expr =
  | Var of var  (** Occurrence of a term variable. *)
  | Lit of Literal.t  (** Unboxed literal. *)
  | Con of Datacon.t * Types.t list * expr list
      (** Saturated constructor application [K phis es]. *)
  | Prim of Primop.t * expr list  (** Saturated primitive operation. *)
  | App of expr * expr  (** Application [e u]. *)
  | TyApp of expr * Types.t  (** Type instantiation [e phi]. *)
  | Lam of var * expr  (** Value abstraction [\x:sigma. e]. *)
  | TyLam of Ident.t * expr  (** Type abstraction [/\a. e]. *)
  | Let of bind * expr  (** Value binding [let vb in e]. *)
  | Case of expr * alt list  (** Case analysis [case e of alts]. *)
  | Join of jbind * expr  (** Join-point binding [join jb in u]. *)
  | Jump of var * Types.t list * expr list * Types.t
      (** [jump j phis es tau]: invoke join point [j]. *)

and bind =
  | NonRec of var * expr  (** [x : tau = e] *)
  | Strict of var * expr
      (** [let! x : tau = e] — a demand-analysis-certified strict
          binding: the right-hand side is evaluated to WHNF before the
          body runs. Introduced by {!Demand} where the binder is
          provably demanded (GHC models these as cases with binders;
          §7 of the paper discusses strictness analysis for join
          points). An unboxed-literal result binds with {b no heap
          allocation} — this is what keeps loop accumulators free. *)
  | Rec of (var * expr) list  (** [rec x_i : tau_i = e_i] *)

(** One join-point definition [j tyvars params = rhs]. The binder
    [j_var]'s type is always [Types.join_point_ty] of the parameters. *)
and join_defn = {
  j_var : var;
  j_tyvars : Ident.t list;
  j_params : var list;
  j_rhs : expr;
}

and jbind = JNonRec of join_defn | JRec of join_defn list

and alt = { alt_pat : pat; alt_rhs : expr }

and pat =
  | PCon of Datacon.t * var list  (** [K x1 ... xn -> rhs] *)
  | PLit of Literal.t  (** Literal pattern (unboxed match). *)
  | PDefault  (** Wildcard [DEFAULT]; matches anything. *)

(* ------------------------------------------------------------------ *)
(* Smart constructors and helpers                                      *)
(* ------------------------------------------------------------------ *)

let mk_var name ty = { v_name = Ident.fresh name; v_ty = ty }
let var_occ v = Var v

(** Refresh a binder's identifier, keeping its type. *)
let refresh_var v = { v with v_name = Ident.refresh v.v_name }

let var_equal a b = Ident.equal a.v_name b.v_name

(** [apps f es] builds the curried application [f e1 ... en]. *)
let apps f es = List.fold_left (fun acc e -> App (acc, e)) f es

(** [ty_apps f phis] builds [f phi1 ... phin]. *)
let ty_apps f phis = List.fold_left (fun acc t -> TyApp (acc, t)) f phis

(** [lams xs e] builds [\x1 ... xn. e]. *)
let lams xs e = List.fold_right (fun x acc -> Lam (x, acc)) xs e

(** [ty_lams as e] builds [/\a1 ... an. e]. *)
let ty_lams tvs e = List.fold_right (fun a acc -> TyLam (a, acc)) tvs e

(** Fully decompose an application head: returns the head expression,
    and the spine of type and value arguments in application order. *)
let collect_args e =
  let rec go e (args : [ `Ty of Types.t | `Val of expr ] list) =
    match e with
    | App (f, a) -> go f (`Val a :: args)
    | TyApp (f, t) -> go f (`Ty t :: args)
    | _ -> (e, args)
  in
  go e []

(** Strip leading value and type lambdas, in order. *)
let collect_binders e =
  let rec go acc = function
    | Lam (x, b) -> go (`Val x :: acc) b
    | TyLam (a, b) -> go (`Ty a :: acc) b
    | e -> (List.rev acc, e)
  in
  go [] e

let join_defns = function JNonRec d -> [ d ] | JRec ds -> ds
let bind_pairs = function
  | NonRec (x, e) | Strict (x, e) -> [ (x, e) ]
  | Rec xs -> xs
let binders_of_bind b = List.map fst (bind_pairs b)
let binders_of_jbind jb = List.map (fun d -> d.j_var) (join_defns jb)

(** Variables bound by a pattern. *)
let pat_binders = function PCon (_, xs) -> xs | PLit _ | PDefault -> []

(** A fresh join-point binder for the given type/value parameters. *)
let mk_join_var name tyvars (params : var list) =
  mk_var name
    (Types.join_point_ty tyvars (List.map (fun p -> p.v_ty) params))

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

(** Answers [A] of Fig. 1: lambdas, type lambdas and constructor
    applications to values. Literals are also answers. *)
let rec is_answer = function
  | Lam _ | TyLam _ | Lit _ -> true
  | Con (_, _, args) -> List.for_all is_answer args
  | Var _ -> false
  | _ -> false

(** Values for the purpose of the [inline] axiom: anything whose
    evaluation is complete (a WHNF). Variable occurrences are treated as
    trivial rather than values. *)
let is_whnf = function Lam _ | TyLam _ | Lit _ | Con _ -> true | _ -> false

(** Trivial expressions: duplicating them costs nothing at runtime. *)
let rec is_trivial = function
  | Var _ | Lit _ -> true
  | TyApp (e, _) -> is_trivial e
  | Con (_, _, []) -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Size                                                                *)
(* ------------------------------------------------------------------ *)

(** A crude size measure used by inlining heuristics: the number of
    syntax nodes, ignoring types. *)
let rec size e =
  match e with
  | Var _ | Lit _ -> 1
  | Con (_, _, es) | Prim (_, es) -> 1 + List.fold_left (fun n e -> n + size e) 0 es
  | App (f, a) -> size f + size a
  | TyApp (f, _) -> size f
  | Lam (_, b) -> 1 + size b
  | TyLam (_, b) -> size b
  | Let (b, body) ->
      1 + size body
      + List.fold_left (fun n (_, e) -> n + size e) 0 (bind_pairs b)
  | Case (scrut, alts) ->
      1 + size scrut
      + List.fold_left (fun n a -> n + 1 + size a.alt_rhs) 0 alts
  | Join (jb, body) ->
      1 + size body
      + List.fold_left (fun n d -> n + size d.j_rhs) 0 (join_defns jb)
  | Jump (_, _, es, _) ->
      1 + List.fold_left (fun n e -> n + size e) 0 es

(* ------------------------------------------------------------------ *)
(* Pass-boundary measure                                               *)
(* ------------------------------------------------------------------ *)

type measure = {
  m_size : int;
  m_joins : int;
  m_nodes : int;
  m_depth : int;
  m_heap_words : int;
}

(** One traversal computing {!size}, the number of join-point
    definitions (each member of a recursive group counts once), node
    count, maximum nesting depth, and an estimate of the OCaml heap
    words the tree occupies. The word model is the runtime's: a block
    with [k] fields costs [k + 1] words (header included), a list of
    [n] elements adds [n] 3-word cons cells, a binder ({!var} record)
    is a 3-word block. Types hanging off the tree are counted as the
    single pointer word their field occupies (they are heavily shared);
    the estimate is consistent across passes, which is what
    pass-boundary deltas need. The walk allocates only its counters and
    result, so it can run inside a pass's GC span. *)
let measure e =
  let size = ref 0 and joins = ref 0 and nodes = ref 0 and depth = ref 0 in
  let words = ref 0 in
  let block k = 1 + k in
  let conses n = 3 * n in
  let var_w = block 2 in
  (* One constructor at depth [d], contributing [s] to {!size} and [w]
     heap words of its own. *)
  let node d s w =
    incr nodes;
    size := !size + s;
    words := !words + w;
    if d > !depth then depth := d
  in
  let pat_w = function
    | PCon (_, xs) -> block 2 + (List.length xs * (var_w + conses 1))
    | PLit _ -> block 1 + block 1
    | PDefault -> 0
  in
  let rec go d e =
    match e with
    | Var _ -> node d 1 (block 1 + var_w)
    | Lit _ -> node d 1 (block 1 + block 1)
    | Con (_, tys, es) ->
        node d 1 (block 3 + conses (List.length tys + List.length es));
        go_list (d + 1) es
    | Prim (_, es) ->
        node d 1 (block 2 + conses (List.length es));
        go_list (d + 1) es
    | App (f, a) ->
        node d 0 (block 2);
        go (d + 1) f;
        go (d + 1) a
    | TyApp (f, _) ->
        node d 0 (block 2);
        go (d + 1) f
    | Lam (_, b) ->
        node d 1 (block 2 + var_w);
        go (d + 1) b
    | TyLam (_, b) ->
        node d 0 (block 2);
        go (d + 1) b
    | Let ((NonRec (_, rhs) | Strict (_, rhs)), body) ->
        node d 1 (block 2 + var_w + conses 1 + block 2);
        go (d + 1) rhs;
        go (d + 1) body
    | Let (Rec pairs, body) ->
        node d 1 (block 2 + (List.length pairs * (var_w + conses 1 + block 2)));
        List.iter (fun (_, rhs) -> go (d + 1) rhs) pairs;
        go (d + 1) body
    | Case (scrut, alts) ->
        node d 1 (block 2);
        go (d + 1) scrut;
        go_alts (d + 1) alts
    | Join (jb, body) ->
        node d 1 (block 2);
        (match jb with
        | JNonRec j -> go_defn (d + 1) j
        | JRec ds -> List.iter (go_defn (d + 1)) ds);
        go (d + 1) body
    | Jump (_, tys, es, _) ->
        node d 1
          (block 4 + var_w + conses (List.length tys + List.length es));
        go_list (d + 1) es
  and go_list d = function
    | [] -> ()
    | e :: es ->
        go d e;
        go_list d es
  (* An alternative is not a node, but counts 1 toward {!size}. *)
  and go_alts d = function
    | [] -> ()
    | a :: alts ->
        incr size;
        words := !words + conses 1 + block 2 + pat_w a.alt_pat;
        go d a.alt_rhs;
        go_alts d alts
  and go_defn d j =
    incr joins;
    words :=
      !words + block 4 + var_w
      + conses (List.length j.j_tyvars)
      + (List.length j.j_params * (var_w + conses 1));
    go d j.j_rhs
  in
  go 1 e;
  { m_size = !size; m_joins = !joins; m_nodes = !nodes; m_depth = !depth;
    m_heap_words = !words }

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)
(* ------------------------------------------------------------------ *)

(** Free {e term} variables of an expression — including free labels
    (join-point names), which live in the same namespace. *)
let free_vars e =
  let rec go bound acc e =
    match e with
    | Var v ->
        if Ident.Set.mem v.v_name bound then acc
        else Ident.Set.add v.v_name acc
    | Jump (j, _, es, _) ->
        let acc =
          if Ident.Set.mem j.v_name bound then acc
          else Ident.Set.add j.v_name acc
        in
        List.fold_left (go bound) acc es
    | Lit _ -> acc
    | Con (_, _, es) | Prim (_, es) -> List.fold_left (go bound) acc es
    | App (f, a) -> go bound (go bound acc f) a
    | TyApp (f, _) -> go bound acc f
    | Lam (x, b) -> go (Ident.Set.add x.v_name bound) acc b
    | TyLam (_, b) -> go bound acc b
    | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
        let acc = go bound acc rhs in
        go (Ident.Set.add x.v_name bound) acc body
    | Let (Rec pairs, body) ->
        let bound' =
          List.fold_left
            (fun s (x, _) -> Ident.Set.add x.v_name s)
            bound pairs
        in
        let acc =
          List.fold_left (fun acc (_, rhs) -> go bound' acc rhs) acc pairs
        in
        go bound' acc body
    | Case (scrut, alts) ->
        let acc = go bound acc scrut in
        List.fold_left
          (fun acc { alt_pat; alt_rhs } ->
            let bound' =
              List.fold_left
                (fun s x -> Ident.Set.add x.v_name s)
                bound (pat_binders alt_pat)
            in
            go bound' acc alt_rhs)
          acc alts
    | Join (JNonRec d, body) ->
        let acc = go_defn bound acc d in
        go (Ident.Set.add d.j_var.v_name bound) acc body
    | Join (JRec ds, body) ->
        let bound' =
          List.fold_left
            (fun s d -> Ident.Set.add d.j_var.v_name s)
            bound ds
        in
        let acc = List.fold_left (go_defn bound') acc ds in
        go bound' acc body
  and go_defn bound acc d =
    let bound' =
      List.fold_left
        (fun s p -> Ident.Set.add p.v_name s)
        bound d.j_params
    in
    go bound' acc d.j_rhs
  in
  go Ident.Set.empty Ident.Set.empty e

(** Free type variables (needed by the floating passes). *)
let free_ty_vars e =
  let add_ty bound acc ty =
    Ident.Set.union acc (Ident.Set.diff (Types.free_vars ty) bound)
  in
  let add_var bound acc (v : var) = add_ty bound acc v.v_ty in
  let rec go bound acc e =
    match e with
    | Var v -> add_var bound acc v
    | Lit _ -> acc
    | Con (_, tys, es) ->
        let acc = List.fold_left (fun a t -> add_ty bound a t) acc tys in
        List.fold_left (go bound) acc es
    | Prim (_, es) -> List.fold_left (go bound) acc es
    | App (f, a) -> go bound (go bound acc f) a
    | TyApp (f, t) -> go bound (add_ty bound acc t) f
    | Lam (x, b) -> go bound (add_var bound acc x) b
    | TyLam (a, b) -> go (Ident.Set.add a bound) acc b
    | Let (b, body) ->
        let acc =
          List.fold_left
            (fun acc (x, rhs) -> go bound (add_var bound acc x) rhs)
            acc (bind_pairs b)
        in
        go bound acc body
    | Case (scrut, alts) ->
        let acc = go bound acc scrut in
        List.fold_left
          (fun acc { alt_pat; alt_rhs } ->
            let acc =
              List.fold_left (add_var bound) acc (pat_binders alt_pat)
            in
            go bound acc alt_rhs)
          acc alts
    | Join (jb, body) ->
        let acc =
          List.fold_left
            (fun acc d ->
              let bound' =
                List.fold_left (fun s a -> Ident.Set.add a s) bound d.j_tyvars
              in
              let acc =
                List.fold_left (add_var bound') acc d.j_params
              in
              go bound' acc d.j_rhs)
            acc (join_defns jb)
        in
        go bound acc body
    | Jump (_, tys, es, ty) ->
        let acc = List.fold_left (add_ty bound) acc tys in
        let acc = add_ty bound acc ty in
        List.fold_left (go bound) acc es
  in
  go Ident.Set.empty Ident.Set.empty e

(* [n] plus the free occurrences of [x] in [e] (as a variable or a jump
   label), the walk stopping once the count reaches [upto]. Scoping is
   exactly that of {!free_vars}. Top-level functions with no closures,
   so a query allocates nothing. *)
let rec count_free x upto n e =
  if n >= upto then n
  else
    match e with
    | Var v -> if Ident.equal v.v_name x then n + 1 else n
    | Lit _ -> n
    | Jump (j, _, es, _) ->
        count_list x upto (if Ident.equal j.v_name x then n + 1 else n) es
    | Con (_, _, es) | Prim (_, es) -> count_list x upto n es
    | App (f, a) -> count_free x upto (count_free x upto n f) a
    | TyApp (f, _) | TyLam (_, f) -> count_free x upto n f
    | Lam (y, b) -> if Ident.equal y.v_name x then n else count_free x upto n b
    | Let ((NonRec (y, rhs) | Strict (y, rhs)), body) ->
        let n = count_free x upto n rhs in
        if Ident.equal y.v_name x then n else count_free x upto n body
    | Let (Rec pairs, body) ->
        if binds_pair x pairs then n
        else count_free x upto (count_pairs x upto n pairs) body
    | Case (scrut, alts) -> count_alts x upto (count_free x upto n scrut) alts
    | Join (JNonRec d, body) ->
        let n = count_defn x upto n d in
        if Ident.equal d.j_var.v_name x then n else count_free x upto n body
    | Join (JRec ds, body) ->
        if binds_label x ds then n
        else count_free x upto (count_defns x upto n ds) body

and count_list x upto n = function
  | [] -> n
  | e :: es -> count_list x upto (count_free x upto n e) es

and count_pairs x upto n = function
  | [] -> n
  | (_, rhs) :: pairs -> count_pairs x upto (count_free x upto n rhs) pairs

and count_alts x upto n = function
  | [] -> n
  | a :: alts ->
      let n =
        if binds x (pat_binders a.alt_pat) then n
        else count_free x upto n a.alt_rhs
      in
      count_alts x upto n alts

and count_defn x upto n d =
  if binds x d.j_params then n else count_free x upto n d.j_rhs

and count_defns x upto n = function
  | [] -> n
  | d :: ds -> count_defns x upto (count_defn x upto n d) ds

and binds x = function
  | [] -> false
  | (y : var) :: ys -> Ident.equal y.v_name x || binds x ys

and binds_pair x = function
  | [] -> false
  | ((y : var), _) :: pairs -> Ident.equal y.v_name x || binds_pair x pairs

and binds_label x = function
  | [] -> false
  | d :: ds -> Ident.equal d.j_var.v_name x || binds_label x ds

(** Does variable [x] occur free in [e]? The answer of
    [Ident.Set.mem x (free_vars e)], but the walk stops at the first
    free occurrence and allocates nothing. *)
let occurs x e = count_free x 1 0 e > 0

(** [occurrences ~upto x e]: how many times [x] occurs free in [e]
    (the [count] of {!Occur}), counted no further than [upto]. *)
let occurrences ~upto x e = count_free x upto 0 e

(* ------------------------------------------------------------------ *)
(* Syntactic order                                                     *)
(* ------------------------------------------------------------------ *)

let rec compare_list cmp xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = cmp x y in
      if c <> 0 then c else compare_list cmp xs ys

(* A binder whose type the printer shows: [(x : ty)]. *)
let compare_binder (x : var) (y : var) =
  let c = Ident.compare x.v_name y.v_name in
  if c <> 0 then c else Types.compare x.v_ty y.v_ty

(* An occurrence, or a binder printed without its type. *)
let compare_occ (x : var) (y : var) = Ident.compare x.v_name y.v_name

let expr_tag = function
  | Var _ -> 0
  | Lit _ -> 1
  | Con _ -> 2
  | Prim _ -> 3
  | App _ -> 4
  | TyApp _ -> 5
  | Lam _ -> 6
  | TyLam _ -> 7
  | Let _ -> 8
  | Case _ -> 9
  | Join _ -> 10
  | Jump _ -> 11

(** A total order on expressions whose equality is exactly that of
    their {!Pretty} printouts: variables and type variables compare by
    {!Ident} key, types, literals, constructors (by name) and primops
    structurally; what the printer leaves out — the types of
    occurrences, of case-pattern binders and of join labels — is left
    out here too. CSE keys on it, and a rule's repeated hole uses it
    for "the same expression". *)
let rec compare_expr a b =
  if a == b then 0
  else
    match (a, b) with
    | Var x, Var y -> compare_occ x y
    | Lit l, Lit l' -> Literal.compare l l'
    | Con (dc, tys, es), Con (dc', tys', es') ->
        let c = String.compare dc.Datacon.name dc'.Datacon.name in
        if c <> 0 then c
        else
          let c = compare_list Types.compare tys tys' in
          if c <> 0 then c else compare_list compare_expr es es'
    | Prim (op, es), Prim (op', es') ->
        let c = Stdlib.compare (op : Primop.t) op' in
        if c <> 0 then c else compare_list compare_expr es es'
    | App (f, x), App (f', x') ->
        let c = compare_expr f f' in
        if c <> 0 then c else compare_expr x x'
    | TyApp (f, t), TyApp (f', t') ->
        let c = compare_expr f f' in
        if c <> 0 then c else Types.compare t t'
    | Lam (x, e), Lam (x', e') ->
        let c = compare_binder x x' in
        if c <> 0 then c else compare_expr e e'
    | TyLam (a, e), TyLam (a', e') ->
        let c = Ident.compare a a' in
        if c <> 0 then c else compare_expr e e'
    | Let (bind, e), Let (bind', e') ->
        let c = compare_bind bind bind' in
        if c <> 0 then c else compare_expr e e'
    | Case (s, alts), Case (s', alts') ->
        let c = compare_expr s s' in
        if c <> 0 then c else compare_list compare_alt alts alts'
    | Join (jb, e), Join (jb', e') ->
        let c = compare_jbind jb jb' in
        if c <> 0 then c else compare_expr e e'
    | Jump (j, tys, es, ty), Jump (j', tys', es', ty') ->
        let c = compare_occ j j' in
        if c <> 0 then c
        else
          let c = compare_list Types.compare tys tys' in
          if c <> 0 then c
          else
            let c = compare_list compare_expr es es' in
            if c <> 0 then c else Types.compare ty ty'
    | _ -> Int.compare (expr_tag a) (expr_tag b)

and compare_pair (x, e) (x', e') =
  let c = compare_binder x x' in
  if c <> 0 then c else compare_expr e e'

and compare_bind b b' =
  match (b, b') with
  | NonRec (x, e), NonRec (x', e') | Strict (x, e), Strict (x', e') ->
      let c = compare_binder x x' in
      if c <> 0 then c else compare_expr e e'
  | Rec pairs, Rec pairs' -> compare_list compare_pair pairs pairs'
  | NonRec _, _ -> -1
  | _, NonRec _ -> 1
  | Strict _, _ -> -1
  | _, Strict _ -> 1

and compare_alt a a' =
  let c =
    match (a.alt_pat, a'.alt_pat) with
    | PCon (dc, xs), PCon (dc', xs') ->
        let c = String.compare dc.Datacon.name dc'.Datacon.name in
        if c <> 0 then c else compare_list compare_occ xs xs'
    | PLit l, PLit l' -> Literal.compare l l'
    | PDefault, PDefault -> 0
    | PCon _, _ -> -1
    | _, PCon _ -> 1
    | PLit _, _ -> -1
    | _, PLit _ -> 1
  in
  if c <> 0 then c else compare_expr a.alt_rhs a'.alt_rhs

and compare_jbind jb jb' =
  match (jb, jb') with
  | JNonRec d, JNonRec d' -> compare_defn d d'
  | JRec ds, JRec ds' -> compare_list compare_defn ds ds'
  | JNonRec _, JRec _ -> -1
  | JRec _, JNonRec _ -> 1

and compare_defn d d' =
  let c = compare_occ d.j_var d'.j_var in
  if c <> 0 then c
  else
    let c = compare_list Ident.compare d.j_tyvars d'.j_tyvars in
    if c <> 0 then c
    else
      let c = compare_list compare_binder d.j_params d'.j_params in
      if c <> 0 then c else compare_expr d.j_rhs d'.j_rhs

(* ------------------------------------------------------------------ *)
(* The type of a well-typed expression                                 *)
(* ------------------------------------------------------------------ *)

exception Ill_typed of string

(** [ty_of e] computes the type of [e], {e assuming} [e] is well-typed
    (cf. GHC's [exprType]). Use {!Lint} to actually check typing. *)
let rec ty_of e =
  match e with
  | Var v -> v.v_ty
  | Lit l -> Literal.ty l
  | Con (dc, phis, _) -> Types.apps (Types.Con dc.tycon) phis
  | Prim (op, _) -> snd (Primop.signature op)
  | App (f, _) -> (
      match ty_of f with
      | Types.Arrow (_, res) -> res
      | t ->
          raise
            (Ill_typed
               (Fmt.str "application head has non-function type %a" Types.pp t)))
  | TyApp (f, phi) -> (
      match ty_of f with
      | Types.Forall (a, body) -> Types.subst1 a phi body
      | t ->
          raise
            (Ill_typed
               (Fmt.str "type application head has type %a" Types.pp t)))
  | Lam (x, b) -> Types.Arrow (x.v_ty, ty_of b)
  | TyLam (a, b) -> Types.Forall (a, ty_of b)
  | Let (_, body) -> ty_of body
  | Case (_, alts) -> (
      match alts with
      | [] -> raise (Ill_typed "empty case")
      | a :: _ -> ty_of a.alt_rhs)
  | Join (_, body) -> ty_of body
  | Jump (_, _, _, ty) -> ty
