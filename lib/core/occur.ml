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

(* The binder accumulator [acc], when given (see [with_binder_info]),
   receives the usage of each binder at the moment its scope closes. *)
let rec remove_binders (acc : info Ident.Map.t ref option) xs (m : t) =
  match xs with
  | [] -> m
  | (x : var) :: xs ->
      (match acc with
      | None -> ()
      | Some acc -> acc := Ident.Map.add x.v_name (lookup m x) !acc);
      remove_binders acc xs (Ident.Map.remove x.v_name m)

(* ------------------------------------------------------------------ *)
(* Per-node rules                                                      *)
(* ------------------------------------------------------------------ *)

(* A node's usage from its children's. A child may have been analysed
   in tail position or not: wherever a rule puts a child in a non-tail
   position it applies [non_tail] or [under_lambda], which erase the
   difference. [go] below applies the rules while walking an existing
   tree; {!Contify} applies them bottom-up to the tree it builds. Rules
   that close a binder's scope take [with_binder_info]'s accumulator.
   [of_let] leaves closing its binder to the caller, so that [go] can
   record it before analysing the right-hand side: when one binder is
   bound twice, the last record wins. *)

(** Close the scope of binders [xs]: their usage leaves the map. *)
let close ?acc xs m = remove_binders acc xs m

(** The value arguments of a constructor, primop, call or jump. *)
let of_args ms = non_tail (unions ms)

(** A lambda binding [xs] (none for a type lambda). *)
let of_lam ?acc xs b = under_lambda (close ?acc xs b)

(** A non-recursive or strict [let], given its body with the binder
    already closed. *)
let of_let ~rhs ~body = union (non_tail rhs) body

(** [let rec xs = rhss in body]. *)
let of_letrec ?acc xs ~rhss ~body =
  close ?acc xs (union (non_tail (unions rhss)) body)

(** One alternative [pat -> rhs]. *)
let of_alt ?acc pat rhs = close ?acc (pat_binders pat) rhs

(** [case scrut of alts], given the alternatives from {!of_alt}. *)
let of_case ~scrut ~alts = union (non_tail scrut) (unions alts)

(** The right-hand side of [d], one of [jb]'s definitions. Join
    right-hand sides are tail contexts; a recursive one also closes its
    sibling labels, and runs once per jump, so inlining an outer
    binding into it duplicates work. *)
let of_join_rhs ?acc jb d rhs =
  let m = close ?acc d.j_params rhs in
  match jb with
  | JNonRec _ -> m
  | JRec _ -> work_dup (close ?acc (binders_of_jbind jb) m)

(** [join jb in body], given the right-hand sides from {!of_join_rhs}. *)
let of_join ?acc jb ~rhss ~body =
  union (unions rhss) (close ?acc (binders_of_jbind jb) body)

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

let rec go acc ~tail (e : expr) : t =
  match e with
  | Var _ | App _ | TyApp _ -> go_spine acc ~tail e
  | Lit _ -> Ident.Map.empty
  | Con (_, _, es) | Prim (_, es) ->
      of_args (List.map (go acc ~tail:false) es)
  | Lam (x, b) -> of_lam ?acc [ x ] (go acc ~tail:false b)
  | TyLam (_, b) -> of_lam [] (go acc ~tail:false b)
  | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
      let body = close ?acc [ x ] (go acc ~tail body) in
      of_let ~rhs:(go acc ~tail:false rhs) ~body
  | Let (Rec pairs, body) ->
      let rhss = List.map (fun (_, rhs) -> go acc ~tail:false rhs) pairs in
      of_letrec ?acc (List.map fst pairs) ~rhss ~body:(go acc ~tail body)
  | Case (scrut, alts) ->
      let scrut = go acc ~tail:false scrut in
      let alts =
        List.map
          (fun { alt_pat; alt_rhs } ->
            of_alt ?acc alt_pat (go acc ~tail alt_rhs))
          alts
      in
      of_case ~scrut ~alts
  | Join (jb, body) ->
      let rhss =
        List.map
          (fun d -> of_join_rhs ?acc jb d (go acc ~tail d.j_rhs))
          (join_defns jb)
      in
      of_join ?acc jb ~rhss ~body:(go acc ~tail body)
  | Jump (j, phis, es, _) -> of_jump j phis (List.map (go acc ~tail:false) es)

(* An application spine [f @t1 .. @tm a1 .. an]. Mixed spines (type
   args after value args, or non-variable heads) are analyzed
   structurally. *)
and go_spine acc ~tail e : t =
  let head, args = collect_args e in
  match head with
  | Var v -> of_call ~tail v args (go_args acc args)
  | _ ->
      let head = go acc ~tail:false head in
      of_apply ~head (go_args acc args)

(* The uses of a spine's value arguments, in order. *)
and go_args acc = function
  | [] -> []
  | `Val a :: args -> go acc ~tail:false a :: go_args acc args
  | `Ty _ :: args -> go_args acc args

(** [analyze ~tail e] returns usage info for the free variables of [e].
    [tail] says whether [e] itself sits in tail position. *)
let analyze ~tail e = go None ~tail e

(** Convenience: analysis of a complete (tail-position) expression. *)
let of_expr e = analyze ~tail:true e

(** [is_dead m x]: [x] does not occur. *)
let is_dead m (x : var) = (lookup m x).count = 0

(** [occurs_once_safely m x]: exactly one occurrence, not under a
    lambda — inlining is work-safe. *)
let occurs_once_safely m (x : var) =
  let i = lookup m x in
  i.count = 1 && not i.under_lam

(** [with_binder_info e] analyzes [e] and additionally returns the
    usage information of every {e binder} in [e] (recorded at the point
    its scope closes), keyed by the binder's unique. The simplifier
    consumes this to make dead-code and inline-once decisions. *)
let with_binder_info e : t * info Ident.Map.t =
  let acc = ref Ident.Map.empty in
  let free = go (Some acc) ~tail:true e in
  (free, !acc)
