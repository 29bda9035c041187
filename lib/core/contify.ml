(** Contification: inferring join points (Sec. 4, Fig. 5).

    A [let]-bound function every one of whose occurrences is a
    saturated {e tail call} (with a consistent argument shape) can be
    rebound as a join point, and its calls turned into jumps, without
    changing the meaning of the program: when such a call runs, the
    evaluation context to discard is empty.

    Implementation: one walk over the term that is "essentially a
    free-variable analysis that also tracks whether each free variable
    has appeared only in the holes of tail contexts" (Sec. 4). Each
    [let] binder gets a mutable cell that gathers its occurrences as
    the walk meets them; if every occurrence in the contified scope
    is a tail call of shape [(n_ty, n_val)], the right-hand side
    decomposes as [/\a_1..a_nty. \x_1..x_nval. body], and [body] has
    the same type as the binding's scope (the proviso of Fig. 5), then
    rewrite. Recursive groups are contified only as a whole, with the
    same check applied to each right-hand side (whose own lambdas are
    first stripped, so the recursive calls are tail calls of the
    stripped bodies).

    One restriction beyond the paper: a nullary candidate
    ([n_ty = n_val = 0]) that is used more than once is left alone —
    under call-by-need the [let] shares one evaluation, whereas a join
    point would re-evaluate at every jump. (GHC's Core is free to do
    this too but its simplifier makes the same work-duplication
    choice.) *)

open Syntax

(* Contification counts are reported per-invocation through
   {!Telemetry} ([Contified] / [Contified_group] ticks into whatever
   collector the caller installed) — the old process-global mutable
   [stats] record made repeated or interleaved pipeline runs
   cross-contaminate each other's counts. *)

(* Shape of a call: number of type arguments and value arguments. *)
type call_shape = { n_ty : int; n_val : int }

(* Strip exactly [n_ty] type binders then [n_val] value binders from an
   expression; [None] if the binder prefix does not match. *)
let strip_binders ~n_ty ~n_val e =
  let rec tys n acc e =
    if n = 0 then vals n_val acc [] e
    else
      match e with
      | TyLam (a, b) -> tys (n - 1) acc b |> add_ty a
      | _ -> None
  and add_ty a = Option.map (fun (tvs, xs, body) -> (a :: tvs, xs, body))
  and vals n _acc xs e =
    if n = 0 then Some ([], List.rev xs, e)
    else
      match e with
      | Lam (x, b) -> vals (n - 1) _acc (x :: xs) b
      | _ -> None
  in
  tys n_ty () e

(* Rewrite every saturated tail-call spine of one of the [targets] into
   a jump. The occurrence analysis has already certified that every
   occurrence of a target is such a spine in tail position, so we can
   rewrite spines wherever they appear. [targets] maps the old
   identifier to the new join binder and its shape. *)
let rewrite_calls (targets : (var * call_shape) Ident.Map.t) e =
  let rec go e =
    match e with
    | Var _ | App _ | TyApp _ -> spine e
    | Lit _ -> e
    | Con (dc, phis, es) -> Con (dc, phis, List.map go es)
    | Prim (op, es) -> Prim (op, List.map go es)
    | Lam (x, b) -> Lam (x, go b)
    | TyLam (a, b) -> TyLam (a, go b)
    | Let (NonRec (x, rhs), body) -> Let (NonRec (x, go rhs), go body)
    | Let (Strict (x, rhs), body) -> Let (Strict (x, go rhs), go body)
    | Let (Rec pairs, body) ->
        Let (Rec (List.map (fun (x, rhs) -> (x, go rhs)) pairs), go body)
    | Case (scrut, alts) ->
        Case
          ( go scrut,
            List.map (fun a -> { a with alt_rhs = go a.alt_rhs }) alts )
    | Join (JNonRec d, body) ->
        Join (JNonRec { d with j_rhs = go d.j_rhs }, go body)
    | Join (JRec ds, body) ->
        Join (JRec (List.map (fun d -> { d with j_rhs = go d.j_rhs }) ds), go body)
    | Jump (j, phis, es, ty) -> Jump (j, phis, List.map go es, ty)
  and spine e =
    let head, args = collect_args e in
    match head with
    | Var v when Ident.Map.mem v.v_name targets ->
        let jvar, shape = Ident.Map.find v.v_name targets in
        let tys =
          List.filter_map (function `Ty t -> Some t | `Val _ -> None) args
        in
        let vals =
          List.filter_map
            (function `Val a -> Some (go a) | `Ty _ -> None)
            args
        in
        assert (List.length tys = shape.n_ty);
        assert (List.length vals = shape.n_val);
        (* The jump's declared result type is the type the call had. *)
        let res_ty =
          let inst = Types.instantiate v.v_ty tys in
          let rec drop n ty =
            if n = 0 then ty
            else
              match ty with
              | Types.Arrow (_, t) -> drop (n - 1) t
              | _ -> invalid_arg "Contify: call shape does not match type"
          in
          drop shape.n_val inst
        in
        Jump (jvar, tys, vals, res_ty)
    | Var _ -> e
    | _ -> (
        match e with
        | App (f, a) -> App (spine f, go a)
        | TyApp (f, t) -> TyApp (spine f, t)
        | _ -> go e)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Cells and frames                                                    *)
(* ------------------------------------------------------------------ *)

(* The walk classifies each occurrence by two counters: [nt], the
   non-tail positions entered (a lambda body, an argument, a
   scrutinee, a strict [let]'s right-hand side, a spine's non-variable
   head), and [lam], the lambdas entered (a [Lam] or [TyLam] body, and
   a recursive join's right-hand side, which runs once per jump). A
   [let]'s right-hand side enters neither: whether it is a tail
   context is decided only with its binding.

   A [let] binder's cell records both counters at the binding. An
   occurrence in the same frame (below) counts as a tail call iff it is
   a canonical call spine (all type arguments first) and [nt] still
   equals the binder's; it is under a lambda iff [lam] grew. The cell
   keeps the count, whether every occurrence was a tail call of one
   shape, the first occurrence's shape, and whether one sat under a
   lambda. Merging one occurrence at a time is exact although merging
   two shapes is not associative when they conflict: the decisions
   read the shape only when every occurrence was a tail call, and then
   every shape agrees. Cells are keyed by unique, so they assume that
   no binder reuses the unique of an enclosing [let]; no tree the
   pipeline builds does. *)
type cell = {
  nt : int;
  lam : int;
  depth : int;  (** The depth of the frame the binder is bound in. *)
  mutable count : int;
  mutable all_tail : bool;
  mutable under_lam : bool;
  mutable n_ty : int;
  mutable n_val : int;
}

(* An occurrence of a binder bound outside the frame it sits in: it
   waits there with its counters until the frame's binding is
   decided. *)
type waiting = {
  cell : cell;
  mutable w_nt : int;
  mutable w_lam : int;
  call : bool;  (** A canonical call spine. *)
  w_n_ty : int;
  w_n_val : int;
}

(* A frame is a [let] right-hand side whose binding is not decided yet
   (the top of the term is the outermost frame). [fdepth] counts the
   frames around it. *)
type frame = {
  cells : cell Ident.Tbl.t;  (** The cells of the binders in scope. *)
  fdepth : int;
  mutable waiting : waiting list;
}

let add (c : cell) ~call ~nt ~lam ~n_ty ~n_val =
  if c.count = 0 then begin
    c.n_ty <- n_ty;
    c.n_val <- n_val
  end
  else if n_ty <> c.n_ty || n_val <> c.n_val then c.all_tail <- false;
  c.count <- c.count + 1;
  if not (call && nt = c.nt) then c.all_tail <- false;
  if lam > c.lam then c.under_lam <- true

let occur fr ~nt ~lam (v : var) ~call ~n_ty ~n_val =
  match Ident.Tbl.find fr.cells v.v_name with
  | c ->
      if c.depth = fr.fdepth then add c ~call ~nt ~lam ~n_ty ~n_val
      else
        fr.waiting <-
          { cell = c; w_nt = nt; w_lam = lam; call; w_n_ty = n_ty;
            w_n_val = n_val }
          :: fr.waiting
  | exception Not_found -> ()

(* Hand the occurrences waiting in a decided right-hand side to the
   frame [fr] around it, or to their binders' cells when bound in
   [fr]. Their counters move by [dnt] and [dlam]: a right-hand side
   kept as a value is one more non-tail position; one turned into a
   join point is a tail context once its [s] stripped binders are gone
   ([-s]), and a recursive one also runs once per jump, as if under one
   more lambda. *)
let rec release fr ~dnt ~dlam = function
  | [] -> ()
  | w :: ws ->
      w.w_nt <- w.w_nt + dnt;
      w.w_lam <- w.w_lam + dlam;
      if w.cell.depth = fr.fdepth then
        add w.cell ~call:w.call ~nt:w.w_nt ~lam:w.w_lam ~n_ty:w.w_n_ty
          ~n_val:w.w_n_val
      else fr.waiting <- w :: fr.waiting;
      release fr ~dnt ~dlam ws

let bind fr ~nt ~lam (x : var) =
  let c =
    {
      nt;
      lam;
      depth = fr.fdepth;
      count = 0;
      all_tail = true;
      under_lam = false;
      n_ty = 0;
      n_val = 0;
    }
  in
  Ident.Tbl.add fr.cells x.v_name c;
  c

(* ------------------------------------------------------------------ *)
(* Decisions                                                           *)
(* ------------------------------------------------------------------ *)

(* Can this binding group be contified, given the usage of its binders
   in their scope (and, for recursive groups, in the right-hand
   sides)? Returns the prepared join definitions. *)
let candidate_defn (x : var) rhs (shape : call_shape) =
  match strip_binders ~n_ty:shape.n_ty ~n_val:shape.n_val rhs with
  | None -> None
  | Some (tvs, xs, body) ->
      let jvar =
        { v_name = x.v_name; v_ty = Types.join_point_ty tvs (List.map (fun p -> p.v_ty) xs) }
      in
      Some (jvar, { j_var = jvar; j_tyvars = tvs; j_params = xs; j_rhs = body })

let shape_of_usage (c : cell) =
  if c.count > 0 && c.all_tail && (c.n_ty + c.n_val >= 1 || c.count = 1)
  then Some { n_ty = c.n_ty; n_val = c.n_val }
  else None

(* This pass's name in the decision ledger. *)
let dpass = "contify"

(* Why {!shape_of_usage} said no, as a ledger reason. [None] for dead
   binders (count 0): dropping dead code is the simplifier's decision,
   not a contification refusal. *)
let usage_rejection (c : cell) : Decision.reason option =
  if c.count = 0 then None
  else if not c.all_tail then
    Some
      (if c.under_lam then Decision.Escapes_under_lambda
       else Decision.Not_all_tail_calls)
  else if c.n_ty + c.n_val >= 1 || c.count = 1 then None
  else Some Decision.Nullary_candidate

let record_verdict (x : var) verdict =
  Decision.record ~pass:dpass Decision.Contify ~site:(Ident.site x.v_name)
    verdict

(* The Fig. 5 proviso: the contified body must have the type of the
   scope. [ty_of] may raise on open terms built by tests; treat any
   failure as "not contifiable". *)
let body_ty_matches body scope_ty =
  match Syntax.ty_of body with
  | ty -> Types.equal ty scope_ty
  | exception _ -> false

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

(* Contify [e] in frame [fr] at counters [nt] and [lam]. The decision
   ledger's order, and the order [rewrite_calls] and the proviso draw
   uniques in, depend on the order children are visited in: a
   non-recursive [let]'s right-hand side before its body, a group's
   right-hand sides before its body, body before right-hand side for
   [join] and strict [let], alternatives before scrutinee for [case],
   and right to left along an application spine, then its head. A node
   none of whose children changed is returned itself. *)
let rec go fr ~nt ~lam (e : expr) : expr =
  match e with
  | Var _ | App _ | TyApp _ ->
      spine fr ~nt ~lam ~dirty:false ~n_ty:0 ~n_val:0 ~seen_ty:false
        ~call:true e
  | Lit _ -> e
  | Con (dc, phis, es0) ->
      let es = map_shared (go fr ~nt:(nt + 1) ~lam) es0 in
      if es == es0 then e else Con (dc, phis, es)
  | Prim (op, es0) ->
      let es = map_shared (go fr ~nt:(nt + 1) ~lam) es0 in
      if es == es0 then e else Prim (op, es)
  | Lam (x, b0) ->
      let b = go fr ~nt:(nt + 1) ~lam:(lam + 1) b0 in
      if b == b0 then e else Lam (x, b)
  | TyLam (a, b0) ->
      let b = go fr ~nt:(nt + 1) ~lam:(lam + 1) b0 in
      if b == b0 then e else TyLam (a, b)
  | Case (scrut0, alts0) ->
      let alts = map_alts (go fr ~nt ~lam) alts0 in
      let scrut = go fr ~nt:(nt + 1) ~lam scrut0 in
      if scrut == scrut0 && alts == alts0 then e else Case (scrut, alts)
  | Join (jb0, body0) ->
      let body = go fr ~nt ~lam body0 in
      let lam = match jb0 with JNonRec _ -> lam | JRec _ -> lam + 1 in
      let jb = map_jbind (go fr ~nt ~lam) jb0 in
      if jb == jb0 && body == body0 then e else Join (jb, body)
  | Jump (j, phis, es0, ty) ->
      let es = map_shared (go fr ~nt:(nt + 1) ~lam) es0 in
      if es == es0 then e else Jump (j, phis, es, ty)
  | Let (Strict (x, rhs0), body0) ->
      let body = go fr ~nt ~lam body0 in
      let rhs = go fr ~nt:(nt + 1) ~lam rhs0 in
      if rhs == rhs0 && body == body0 then e else Let (Strict (x, rhs), body)
  | Let (NonRec (x, rhs0), body0) -> let_nonrec fr ~nt ~lam e x rhs0 body0
  | Let (Rec pairs0, body0) -> let_rec fr ~nt ~lam e pairs0 body0

(* An application spine, argument before function: the value arguments
   right to left, then the head. [n_ty] and [n_val] count the arguments
   already passed, [seen_ty] says one of them was a type, and [call]
   that no type argument follows a value one. [dirty] says an argument
   further out changed: then every application node is rebuilt, the
   head kept. *)
and spine fr ~nt ~lam ~dirty ~n_ty ~n_val ~seen_ty ~call e =
  match e with
  | App (f0, a0) ->
      let a = go fr ~nt:(nt + 1) ~lam a0 in
      let dirty = dirty || a != a0 in
      let f =
        spine fr ~nt ~lam ~dirty ~n_ty ~n_val:(n_val + 1) ~seen_ty
          ~call:(call && not seen_ty) f0
      in
      if dirty || f != f0 then App (f, a) else e
  | TyApp (f0, t) ->
      let f =
        spine fr ~nt ~lam ~dirty ~n_ty:(n_ty + 1) ~n_val ~seen_ty:true ~call f0
      in
      if dirty || f != f0 then TyApp (f, t) else e
  | Var v ->
      occur fr ~nt ~lam v ~call ~n_ty ~n_val;
      e
  | _ -> go fr ~nt:(nt + 1) ~lam e

(* A group's right-hand sides, each in a frame of its own, first to
   last; the frames come back in the same order. *)
and go_pairs fr ~nt ~lam pairs =
  match pairs with
  | [] -> (pairs, [])
  | ((x, rhs0) as p) :: rest ->
      let rfr = { fr with fdepth = fr.fdepth + 1; waiting = [] } in
      let rhs = go rfr ~nt ~lam rhs0 in
      let rest', frames = go_pairs fr ~nt ~lam rest in
      ( (if rhs == rhs0 && rest' == rest then pairs
         else (if rhs == rhs0 then p else (x, rhs)) :: rest'),
        rfr :: frames )

and let_nonrec fr ~nt ~lam e x rhs0 body0 =
  let rfr = { fr with fdepth = fr.fdepth + 1; waiting = [] } in
  let rhs = go rfr ~nt ~lam rhs0 in
  let c = bind fr ~nt ~lam x in
  let body = go fr ~nt ~lam body0 in
  Ident.Tbl.remove fr.cells x.v_name;
  let keep () =
    release fr ~dnt:1 ~dlam:0 rfr.waiting;
    if rhs == rhs0 && body == body0 then e else Let (NonRec (x, rhs), body)
  in
  let reject reason =
    record_verdict x (Decision.Rejected reason);
    keep ()
  in
  match shape_of_usage c with
  | None -> (
      match usage_rejection c with
      | None -> keep () (* dead binder; the simplifier will drop it *)
      | Some r -> reject r)
  | Some shape -> (
      match candidate_defn x rhs shape with
      | None -> reject Decision.Rhs_arity_mismatch
      | Some (jvar, defn) ->
          let scope_ty =
            match Syntax.ty_of body with
            | ty -> Some ty
            | exception _ -> None
          in
          if
            match scope_ty with
            | Some ty -> body_ty_matches defn.j_rhs ty
            | None -> false
          then begin
            Telemetry.tick Telemetry.Contified;
            record_verdict x Decision.Fired;
            let s = shape.n_ty + shape.n_val in
            release fr ~dnt:(-s) ~dlam:(-s) rfr.waiting;
            let targets = Ident.Map.singleton x.v_name (jvar, shape) in
            Join (JNonRec defn, rewrite_calls targets body)
          end
          else reject Decision.Scope_type_mismatch)

and let_rec fr ~nt ~lam e pairs0 body0 =
  let group = List.map (fun (x, _) -> bind fr ~nt ~lam x) pairs0 in
  let pairs, frames = go_pairs fr ~nt ~lam pairs0 in
  let body = go fr ~nt ~lam body0 in
  List.iter (fun ((x : var), _) -> Ident.Tbl.remove fr.cells x.v_name) pairs0;
  (* Once the group is decided, the calls of its own binders in its
     right-hand sides go on with the rest, to cells nobody reads again. *)
  let fallback () =
    List.iter (fun rfr -> release fr ~dnt:1 ~dlam:0 rfr.waiting) frames;
    if pairs == pairs0 && body == body0 then e else Let (Rec pairs, body)
  in
  let scope_ty =
    match Syntax.ty_of body with ty -> Some ty | exception _ -> None
  in
  match scope_ty with
  | None ->
      (* The proviso cannot even be checked (open scope). *)
      List.iter
        (fun (x, _) ->
          record_verdict x (Decision.Rejected Decision.Scope_type_mismatch))
        pairs;
      fallback ()
  | Some scope_ty -> (
      (* Each binder needs a consistent shape across body and all rhss;
         each rhs must strip to that shape; recursive calls must be
         tail calls of the stripped bodies. A binder's cell holds its
         use in the body until [try_with_shapes] adds its calls in the
         right-hand sides, each stripped of its own binders. *)
      let shapes = List.combine (List.map fst pairs) group in
      let cell_of (x : var) =
        snd (List.find (fun ((y : var), _) -> var_equal x y) shapes)
      in
      let try_with_shapes (chosen : (var * call_shape) list) =
        let defns =
          List.map
            (fun ((x : var), shape) ->
              match
                List.find_opt (fun ((y : var), _) -> var_equal x y) pairs
              with
              | None -> None
              | Some (_, rhs) ->
                  Option.map
                    (fun (jv, d) -> (x, shape, jv, d))
                    (candidate_defn x rhs shape))
            chosen
        in
        if List.exists Option.is_none defns then begin
          (* Groups contify only as a whole: the binders whose rhs did
             not strip are the culprits. *)
          List.iter2
            (fun (x, _) defn ->
              if Option.is_none defn then
                record_verdict x
                  (Decision.Rejected Decision.Rhs_arity_mismatch))
            chosen defns;
          None
        end
        else
          let defns = List.filter_map Fun.id defns in
          (* Check typing proviso and tail-ness of recursive calls
             inside each stripped rhs. *)
          let bad_types =
            List.filter
              (fun (_, _, _, d) -> not (body_ty_matches d.j_rhs scope_ty))
              defns
          in
          if bad_types <> [] then begin
            List.iter
              (fun (x, _, _, _) ->
                record_verdict x
                  (Decision.Rejected Decision.Scope_type_mismatch))
              bad_types;
            None
          end
          else begin
            let strips =
              List.map
                (fun (_, (shape : call_shape), _, _) -> shape.n_ty + shape.n_val)
                defns
            in
            List.iter2
              (fun rfr s ->
                List.iter
                  (fun w ->
                    if List.memq w.cell group then
                      add w.cell ~call:w.call ~nt:(w.w_nt - s)
                        ~lam:(w.w_lam - s) ~n_ty:w.w_n_ty ~n_val:w.w_n_val)
                  rfr.waiting)
              frames strips;
            let bad_shapes =
              List.filter
                (fun ((x : var), shape, _, _) ->
                  match shape_of_usage (cell_of x) with
                  | Some s -> s <> shape
                  | None -> true)
                defns
            in
            if bad_shapes <> [] then begin
              List.iter
                (fun ((x : var), _, _, _) ->
                  record_verdict x
                    (Decision.Rejected
                       (Option.value ~default:Decision.Shape_mismatch
                          (usage_rejection (cell_of x)))))
                bad_shapes;
              None
            end
            else
              let targets =
                List.fold_left
                  (fun m ((x : var), shape, jv, _) ->
                    Ident.Map.add x.v_name (jv, shape) m)
                  Ident.Map.empty defns
              in
              let ds =
                List.map
                  (fun (_, _, _, d) ->
                    { d with j_rhs = rewrite_calls targets d.j_rhs })
                  defns
              in
              Some (strips, Join (JRec ds, rewrite_calls targets body))
          end
      in
      let chosen =
        List.filter_map
          (fun ((x : var), (c : cell)) ->
            match shape_of_usage c with
            | Some s -> Some (x, s)
            | None -> (
                (* The binder may be used only in the rhss; guess its
                   shape from its manifest arity. *)
                if c.count > 0 then None
                else
                  match
                    List.find_opt (fun ((y : var), _) -> var_equal x y) pairs
                  with
                  | None -> None
                  | Some (_, rhs) ->
                      let binders, _ = collect_binders rhs in
                      let n_ty =
                        List.length
                          (List.filter
                             (function `Ty _ -> true | _ -> false)
                             binders)
                      in
                      let n_val =
                        List.length
                          (List.filter
                             (function `Val _ -> true | _ -> false)
                             binders)
                      in
                      Some (x, { n_ty; n_val })))
          shapes
      in
      if List.length chosen <> List.length pairs then begin
        (* The binders with no usable shape sink the whole group. *)
        List.iter
          (fun ((x : var), c) ->
            if not (List.exists (fun ((y : var), _) -> var_equal x y) chosen)
            then
              match usage_rejection c with
              | Some r -> record_verdict x (Decision.Rejected r)
              | None ->
                  record_verdict x (Decision.Rejected Decision.Shape_mismatch))
          shapes;
        fallback ()
      end
      else
        match try_with_shapes chosen with
        | Some (strips, result) ->
            Telemetry.tick Telemetry.Contified_group;
            Telemetry.tick ~n:(List.length pairs) Telemetry.Contified;
            List.iter (fun (x, _) -> record_verdict x Decision.Fired) pairs;
            List.iter2
              (fun rfr s -> release fr ~dnt:(-s) ~dlam:(1 - s) rfr.waiting)
              frames strips;
            result
        | None -> fallback ())

(** One walk turning every eligible [let] into a [join]. Idempotent;
    cheap enough to run "whenever the occurrence analyzer runs"
    (Sec. 7). The result passes the ["contify/result"] fault point
    (identity unless armed, for the {!Guard} recovery tests). *)
let contify (e : expr) : expr =
  let fr = { cells = Ident.Tbl.create 16; fdepth = 0; waiting = [] } in
  Fault.point "contify/result" (go fr ~nt:0 ~lam:0 e)

(** [contify] under a private collector; returns the term and this
    invocation's contified-binding count. The ticks are re-emitted into
    the enclosing collector (if any) so a surrounding pipeline run
    still observes them. *)
let contify_counted (e : expr) : expr * int =
  let c = Telemetry.create () in
  let e' = Telemetry.with_counters c (fun () -> contify e) in
  let n = Telemetry.get c Telemetry.Contified in
  let groups = Telemetry.get c Telemetry.Contified_group in
  if n > 0 then Telemetry.tick ~n Telemetry.Contified;
  if groups > 0 then Telemetry.tick ~n:groups Telemetry.Contified_group;
  (e', n)
