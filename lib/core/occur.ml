(** The binder census: how often each binder of a term occurs in its
    scope, and whether an occurrence sits under a lambda (inlining a
    redex there can duplicate work). What the simplifier asks of every
    binder it meets, answered for all of them by one walk.

    Contification's tail-call analysis (Sec. 4) is not here: {!Contify}
    tracks tail positions itself, with a cell per [let] binder, in the
    same walk that rewrites the term. *)

open Syntax

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
