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

(** Mark every entry as occurring under a lambda and (therefore) not in
    tail position. *)
let under_lambda (m : t) : t =
  Ident.Map.map (fun i -> { i with under_lam = true; all_tail = false }) m

(** Mark every entry as not in tail position (used for evaluation
    positions like case scrutinees and for argument positions). *)
let non_tail (m : t) : t = Ident.Map.map (fun i -> { i with all_tail = false }) m

(** Mark every entry as work-duplicating if inlined (an occurrence
    inside a {e recursive} join's right-hand side runs once per jump),
    without disturbing tail-ness — outer bindings may still be
    contified. *)
let work_dup (m : t) : t = Ident.Map.map (fun i -> { i with under_lam = true }) m

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

let remove_tyvars _tvs (m : t) = m

let rec go acc ~tail (e : expr) : t =
  match e with
  | Var _ | App _ | TyApp _ -> go_spine acc ~tail e
  | Lit _ -> Ident.Map.empty
  | Con (_, _, es) | Prim (_, es) ->
      non_tail (unions (List.map (go acc ~tail:false) es))
  | Lam (x, b) -> under_lambda (remove_binders acc [ x ] (go acc ~tail:false b))
  | TyLam (a, b) -> under_lambda (remove_tyvars [ a ] (go acc ~tail:false b))
  | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
      union
        (non_tail (go acc ~tail:false rhs))
        (remove_binders acc [ x ] (go acc ~tail body))
  | Let (Rec pairs, body) ->
      let xs = List.map fst pairs in
      let rhss =
        unions (List.map (fun (_, rhs) -> go acc ~tail:false rhs) pairs)
      in
      remove_binders acc xs (union (non_tail rhss) (go acc ~tail body))
  | Case (scrut, alts) ->
      let s = non_tail (go acc ~tail:false scrut) in
      let bs =
        List.map
          (fun { alt_pat; alt_rhs } ->
            remove_binders acc (pat_binders alt_pat) (go acc ~tail alt_rhs))
          alts
      in
      union s (unions bs)
  | Join (jb, body) ->
      let ds = join_defns jb in
      let jvs = List.map (fun d -> d.j_var) ds in
      (* Join rhss are tail contexts. For the recursive case, the
         sibling labels are removed from the rhs usage. *)
      let rhss =
        List.map
          (fun d ->
            let m = go acc ~tail d.j_rhs in
            let m = remove_binders acc d.j_params m in
            match jb with
            | JNonRec _ -> m
            | JRec _ ->
                (* A recursive rhs executes once per jump: inlining an
                   outer binding into it duplicates work. *)
                work_dup (remove_binders acc jvs m))
          ds
      in
      let body_use =
        match jb with
        | JNonRec d -> remove_binders acc [ d.j_var ] (go acc ~tail body)
        | JRec _ -> remove_binders acc jvs (go acc ~tail body)
      in
      union (unions rhss) body_use
  | Jump (j, phis, es, _) ->
      let self =
        Ident.Map.singleton j.v_name
          {
            count = 1;
            under_lam = false;
            all_tail = true;
            shape = Some { n_ty = List.length phis; n_val = List.length es };
          }
      in
      union self (non_tail (unions (List.map (go acc ~tail:false) es)))

(* An application spine [f @t1 .. @tm a1 .. an]: the head variable is a
   call with the spine's shape; tail-ness is inherited. Mixed spines
   (type args after value args, or non-variable heads) are analyzed
   structurally. *)
and go_spine acc ~tail e : t =
  let head, args = collect_args e in
  match head with
  | Var v ->
      let n_ty =
        List.length (List.filter (function `Ty _ -> true | _ -> false) args)
      in
      let n_val =
        List.length (List.filter (function `Val _ -> true | _ -> false) args)
      in
      (* Only count a "canonical" spine (all type args first) as a
         call; anything else is a non-tail naked use. *)
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
      union self (non_tail (unions (go_args acc args)))
  | _ ->
      let head_use = non_tail (go acc ~tail:false head) in
      union head_use (non_tail (unions (go_args acc args)))

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
