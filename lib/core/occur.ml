(** Occurrence analysis.

    Computes, for every free variable of an expression, how often and
    {e how} it occurs:

    - the raw occurrence count (for dead-code elimination and
      inline-once decisions);
    - whether any occurrence sits under a lambda (inlining a redex
      under a lambda can duplicate work);
    - whether {e every} occurrence is a saturated call in {e tail
      position}, and with what consistent argument shape.

    The last item is the analysis of Sec. 4: "essentially a
    free-variable analysis that also tracks whether each free variable
    has appeared only in the holes of tail contexts". It is what
    {!Contify} consumes. Tail positions follow the tail contexts [L] of
    Fig. 1: the expression itself, case branches, let bodies, and join
    right-hand sides and bodies — but {e not} case scrutinees,
    application arguments or heads, lambda bodies, or let right-hand
    sides. *)

open Syntax

(** Shape of a call: number of type arguments and value arguments. *)
type call_shape = { n_ty : int; n_val : int }

type info = {
  count : int;  (** Total number of occurrences. *)
  under_lam : bool;  (** Some occurrence is under a (ty)lambda. *)
  all_tail : bool;  (** Every occurrence is a call in tail position. *)
  shape : call_shape option;
      (** The consistent call shape, if [all_tail] and all occurrences
          agree; meaningless otherwise. *)
}

type t = info Ident.Map.t

let no_info = { count = 0; under_lam = false; all_tail = true; shape = None }

let merge_info a b =
  let shape_ok =
    match (a.shape, b.shape) with
    | Some s, Some s' -> if s = s' then Some s else None
    | None, s | s, None -> s
  in
  let consistent =
    match (a.shape, b.shape) with
    | Some s, Some s' -> s = s'
    | _ -> true
  in
  {
    count = a.count + b.count;
    under_lam = a.under_lam || b.under_lam;
    all_tail = a.all_tail && b.all_tail && consistent;
    shape = shape_ok;
  }

let union : t -> t -> t =
  Ident.Map.union (fun _ a b -> Some (merge_info a b))

let unions = List.fold_left union Ident.Map.empty

(* [m] with [f] applied to the entries that satisfy [p]. Only those are
   re-added: a context over a large scope usually changes few entries,
   and copying the whole map at every level made nested contexts
   quadratic. *)
let adjust p f (m : t) : t =
  Ident.Map.fold
    (fun x i acc -> if p i then Ident.Map.add x (f i) acc else acc)
    m m

(** Mark every entry as occurring under a lambda and (therefore) not in
    tail position. *)
let under_lambda (m : t) : t =
  adjust
    (fun i -> i.all_tail || not i.under_lam)
    (fun i -> { i with under_lam = true; all_tail = false })
    m

(** Mark every entry as not in tail position (used for evaluation
    positions like case scrutinees and for argument positions). *)
let non_tail (m : t) : t =
  adjust (fun i -> i.all_tail) (fun i -> { i with all_tail = false }) m

(** Mark every entry as work-duplicating if inlined (an occurrence
    inside a {e recursive} join's right-hand side runs once per jump),
    without disturbing tail-ness — outer bindings may still be
    contified. *)
let work_dup (m : t) : t =
  adjust (fun i -> not i.under_lam) (fun i -> { i with under_lam = true }) m

(** Usage of [x] within [e] ([e] regarded as being in tail position). *)
let lookup (m : t) (x : var) =
  Option.value ~default:no_info (Ident.Map.find_opt x.v_name m)

(* ------------------------------------------------------------------ *)
(* Per-node rules                                                      *)
(* ------------------------------------------------------------------ *)

(* A node's usage from its children's. A child may have been analysed
   in tail position or not: wherever a rule puts a child in a non-tail
   position it applies [non_tail] or [under_lambda], which erase the
   difference. [go] below applies the rules while walking an existing
   tree; {!Contify} applies them bottom-up to the tree it builds.
   [of_let] leaves closing its binder to the caller, which reads the
   binder's usage off the body first. *)

(** Close the scope of binders [xs]: their usage leaves the map. *)
let rec close xs (m : t) =
  match xs with
  | [] -> m
  | (x : var) :: xs -> close xs (Ident.Map.remove x.v_name m)

(** The value arguments of a constructor, primop, call or jump. *)
let of_args ms = non_tail (unions ms)

(** A lambda binding [xs] (none for a type lambda). *)
let of_lam xs b = under_lambda (close xs b)

(** A non-recursive or strict [let], given its body with the binder
    already closed. *)
let of_let ~rhs ~body = union (non_tail rhs) body

(** [let rec xs = rhss in body]. *)
let of_letrec xs ~rhss ~body =
  close xs (union (non_tail (unions rhss)) body)

(** One alternative [pat -> rhs]. *)
let of_alt pat rhs = close (pat_binders pat) rhs

(** [case scrut of alts], given the alternatives from {!of_alt}. *)
let of_case ~scrut ~alts = union (non_tail scrut) (unions alts)

(** The right-hand side of [d], one of [jb]'s definitions. Join
    right-hand sides are tail contexts; a recursive one also closes its
    sibling labels, and runs once per jump, so inlining an outer
    binding into it duplicates work. *)
let of_join_rhs jb d rhs =
  let m = close d.j_params rhs in
  match jb with
  | JNonRec _ -> m
  | JRec _ -> work_dup (close (binders_of_jbind jb) m)

(** [join jb in body], given the right-hand sides from {!of_join_rhs}. *)
let of_join jb ~rhss ~body =
  union (unions rhss) (close (binders_of_jbind jb) body)

(** [jump j phis es], given the usages of [es]. *)
let of_jump (j : var) phis ms =
  let self =
    Ident.Map.singleton j.v_name
      {
        count = 1;
        under_lam = false;
        all_tail = true;
        shape = Some { n_ty = List.length phis; n_val = List.length ms };
      }
  in
  union self (of_args ms)

(** An application spine [v args] headed by the variable [v]: a call
    with the spine's shape, a tail call if the spine is in tail
    position. Only a "canonical" spine (all type arguments first) counts
    as a call; anything else is a non-tail naked use. [ms] are the
    usages of the value arguments. *)
let of_call ~tail (v : var) (args : [ `Ty of Types.t | `Val of expr ] list)
    ms =
  let n_ty =
    List.length (List.filter (function `Ty _ -> true | _ -> false) args)
  in
  let n_val =
    List.length (List.filter (function `Val _ -> true | _ -> false) args)
  in
  let canonical =
    let rec check seen_val = function
      | [] -> true
      | `Ty _ :: rest -> (not seen_val) && check false rest
      | `Val _ :: rest -> check true rest
    in
    check false args
  in
  let self =
    Ident.Map.singleton v.v_name
      {
        count = 1;
        under_lam = false;
        all_tail = tail && canonical;
        shape = (if canonical then Some { n_ty; n_val } else None);
      }
  in
  union self (of_args ms)

(** A spine whose head is not a variable, given the head's usage. *)
let of_apply ~head ms = union (non_tail head) (of_args ms)

(* ------------------------------------------------------------------ *)
(* The analysis                                                        *)
(* ------------------------------------------------------------------ *)

let rec go ~tail (e : expr) : t =
  match e with
  | Var _ | App _ | TyApp _ -> go_spine ~tail e
  | Lit _ -> Ident.Map.empty
  | Con (_, _, es) | Prim (_, es) -> of_args (List.map (go ~tail:false) es)
  | Lam (x, b) -> of_lam [ x ] (go ~tail:false b)
  | TyLam (_, b) -> of_lam [] (go ~tail:false b)
  | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
      let body = close [ x ] (go ~tail body) in
      of_let ~rhs:(go ~tail:false rhs) ~body
  | Let (Rec pairs, body) ->
      let rhss = List.map (fun (_, rhs) -> go ~tail:false rhs) pairs in
      of_letrec (List.map fst pairs) ~rhss ~body:(go ~tail body)
  | Case (scrut, alts) ->
      let scrut = go ~tail:false scrut in
      let alts =
        List.map
          (fun { alt_pat; alt_rhs } -> of_alt alt_pat (go ~tail alt_rhs))
          alts
      in
      of_case ~scrut ~alts
  | Join (jb, body) ->
      let rhss =
        List.map
          (fun d -> of_join_rhs jb d (go ~tail d.j_rhs))
          (join_defns jb)
      in
      of_join jb ~rhss ~body:(go ~tail body)
  | Jump (j, phis, es, _) -> of_jump j phis (List.map (go ~tail:false) es)

(* An application spine [f @t1 .. @tm a1 .. an]. Mixed spines (type
   args after value args, or non-variable heads) are analyzed
   structurally. *)
and go_spine ~tail e : t =
  let head, args = collect_args e in
  match head with
  | Var v -> of_call ~tail v args (go_args args)
  | _ ->
      let head = go ~tail:false head in
      of_apply ~head (go_args args)

(* The uses of a spine's value arguments, in order. *)
and go_args = function
  | [] -> []
  | `Val a :: args -> go ~tail:false a :: go_args args
  | `Ty _ :: args -> go_args args

(** Analysis of a complete (tail-position) expression. *)
let of_expr e = go ~tail:true e

(** [is_dead m x]: [x] does not occur. *)
let is_dead m (x : var) = (lookup m x).count = 0

(** [occurs_once_safely m x]: exactly one occurrence, not under a
    lambda — inlining is work-safe. *)
let occurs_once_safely m (x : var) =
  let i = lookup m x in
  i.count = 1 && not i.under_lam

(* ------------------------------------------------------------------ *)
(* The binder census                                                   *)
(* ------------------------------------------------------------------ *)

(** How one binder is used over its whole scope: what the simplifier
    asks of every binder it meets. *)
type use = { count : int; under_lam : bool }

(* A binder's cell: its occurrences so far, whether one sat under a
   lambda, and the lambda depth it was bound at. An occurrence deeper
   than that sits under a lambda (or a recursive join's right-hand
   side) inside the binder's scope. *)
type cell = { mutable uses : int; mutable lam : bool; depth : int }

type census = cell Ident.Tbl.t

(* One walk, one cell per binder keyed by unique, and a depth counter
   that grows at every [Lam] and [TyLam] body and every recursive
   join's right-hand side. A [Lam]'s binder and a recursive join's
   parameters are bound inside the depth they open, so their own
   lambda or right-hand side does not put them under a lambda. A
   recursive join's labels are bound after its right-hand sides are
   walked: their use is that of the join's body alone. *)
let census e : census =
  let tbl = Ident.Tbl.create 16 in
  let bind d (x : var) =
    Ident.Tbl.replace tbl x.v_name { uses = 0; lam = false; depth = d }
  in
  let rec bind_all d = function
    | [] -> ()
    | x :: xs ->
        bind d x;
        bind_all d xs
  in
  let rec go d = function
    | Var x -> occ d x
    | Lit _ -> ()
    | App (f, a) ->
        go d f;
        go d a
    | TyApp (f, _) -> go d f
    | Con (_, _, es) | Prim (_, es) -> go_list d es
    | Lam (x, b) ->
        bind (d + 1) x;
        go (d + 1) b
    | TyLam (_, b) -> go (d + 1) b
    | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
        go d rhs;
        bind d x;
        go d body
    | Let (Rec pairs, body) ->
        bind_pairs d pairs;
        go_pairs d pairs;
        go d body
    | Case (scrut, alts) ->
        go d scrut;
        go_alts d alts
    | Join (JNonRec jd, body) ->
        bind_all d jd.j_params;
        go d jd.j_rhs;
        bind d jd.j_var;
        go d body
    | Join (JRec ds, body) ->
        go_rec_rhss (d + 1) ds;
        bind_labels d ds;
        go d body
    | Jump (j, _, es, _) ->
        occ d j;
        go_list d es
  and occ d (x : var) =
    match Ident.Tbl.find tbl x.v_name with
    | c ->
        c.uses <- c.uses + 1;
        if d > c.depth then c.lam <- true
    | exception Not_found -> ()
  and go_list d = function
    | [] -> ()
    | e :: es ->
        go d e;
        go_list d es
  and bind_pairs d = function
    | [] -> ()
    | (x, _) :: pairs ->
        bind d x;
        bind_pairs d pairs
  and go_pairs d = function
    | [] -> ()
    | (_, rhs) :: pairs ->
        go d rhs;
        go_pairs d pairs
  and go_alts d = function
    | [] -> ()
    | a :: alts ->
        bind_all d (pat_binders a.alt_pat);
        go d a.alt_rhs;
        go_alts d alts
  and go_rec_rhss d = function
    | [] -> ()
    | jd :: ds ->
        bind_all d jd.j_params;
        go d jd.j_rhs;
        go_rec_rhss d ds
  and bind_labels d = function
    | [] -> ()
    | jd :: ds ->
        bind d jd.j_var;
        bind_labels d ds
  in
  go 0 e;
  tbl

(** [use c x]: the use of binder [x] over its scope, [None] when [x]
    binds nothing in the census's term. *)
let use (c : census) (x : var) =
  match Ident.Tbl.find c x.v_name with
  | cell -> Some { count = cell.uses; under_lam = cell.lam }
  | exception Not_found -> None
