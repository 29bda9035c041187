(** Random well-typed program generation — see the interface for the
    design. The generator is the one grown out of the property-based
    test suite: leaves and constructors at five monomorphic types,
    lets, cases, applications, join points with jumps in tail
    position, and bounded counting loops via recursive join points. *)

open Syntax
module B = Builder

let default_size = 24

(* ------------------------------------------------------------------ *)
(* RNG combinators (direct-style over Random.State)                    *)
(* ------------------------------------------------------------------ *)

let oneofl st l = List.nth l (Random.State.int st (List.length l))

(* Weighted choice over [(weight, thunk)] candidates. *)
let frequency st (cands : (int * (unit -> 'a)) list) : 'a =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 cands in
  let k = Random.State.int st total in
  let rec pick k = function
    | [] -> assert false
    | (w, f) :: rest -> if k < w then f () else pick (k - w) rest
  in
  pick k cands

let int_range st lo hi = lo + Random.State.int st (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

type genv = {
  vars : (Types.t * var) list;  (** In-scope term variables. *)
  labels : (var * Types.t list) list;
      (** In-scope join points (label, parameter types); only usable
          in tail position. *)
}

let maybe_int = B.maybe_ty Types.int
let list_int = B.list_ty Types.int
let i2i = Types.Arrow (Types.int, Types.int)
let scrutinee_types = [ Types.bool; maybe_int; list_int ]
let all_types = [ Types.int; Types.bool; maybe_int; list_int; i2i ]

let vars_of env ty =
  List.filter_map
    (fun (t, v) -> if Types.equal t ty then Some v else None)
    env.vars

(* A canonical inhabitant of any generated type (fallback leaf, also
   used by the shrinker to discharge pattern binders). *)
let rec default_of (ty : Types.t) : expr =
  match ty with
  | Types.Arrow (a, b) ->
      let x = mk_var "d" a in
      Lam (x, default_of b)
  | _ ->
      if Types.equal ty Types.int then B.int 0
      else if Types.equal ty Types.bool then B.false_
      else if Types.equal ty maybe_int then B.nothing Types.int
      else if Types.equal ty list_int then B.nil Types.int
      else invalid_arg "Gen.default_of: unexpected type"

(* Leaf expressions of each type. *)
let gen_leaf env ty st : expr =
  let vs = vars_of env ty in
  let var_gens = List.map (fun v fun_st -> ignore fun_st; Var v) vs in
  let base =
    if Types.equal ty Types.int then
      [ (fun st -> B.int (Random.State.int st 101)) ]
    else if Types.equal ty Types.bool then
      [ (fun st -> oneofl st [ B.true_; B.false_ ]) ]
    else if Types.equal ty maybe_int then
      [ (fun _ -> B.nothing Types.int) ]
    else if Types.equal ty list_int then [ (fun _ -> B.nil Types.int) ]
    else if Types.equal ty i2i then
      [ (fun _ -> B.lam "l" Types.int (fun x -> B.add x (B.int 1))) ]
    else [ (fun _ -> default_of ty) ]
  in
  (oneofl st (base @ var_gens)) st

(* [tail] controls whether jumps to in-scope labels may be emitted. *)
let rec gen ~tail env ty n st : expr =
  if n <= 0 then gen_leaf env ty st
  else
    let sub = n / 2 in
    let no_labels = { env with labels = [] } in
    let candidates =
      [
        (* leaf *)
        (3, fun () -> gen_leaf env ty st);
        (* let *)
        ( 2,
          fun () ->
            let rty = oneofl st all_types in
            let rhs = gen ~tail:false no_labels rty sub st in
            let x = mk_var "x" rty in
            let body =
              gen ~tail { env with vars = (rty, x) :: env.vars } ty sub st
            in
            Let (NonRec (x, rhs), body) );
        (* case: scrutinee keeps no labels (conservative); branches
           inherit tail-ness. *)
        ( 3,
          fun () ->
            let sty = oneofl st scrutinee_types in
            let scrut = gen ~tail:false no_labels sty sub st in
            let alts = gen_alts ~tail env sty ty sub st in
            Case (scrut, alts) );
        (* application *)
        ( 2,
          fun () ->
            let arg = gen ~tail:false no_labels Types.int sub st in
            let f =
              gen ~tail:false no_labels (Types.Arrow (Types.int, ty)) sub st
            in
            App (f, arg) );
        (* join point: one Int parameter; rhs and body are both tail
           (rhs may also use outer labels). *)
        ( 2,
          fun () ->
            let x = mk_var "p" Types.int in
            let jv = mk_join_var "j" [] [ x ] in
            let rhs =
              gen ~tail:true
                { env with vars = (Types.int, x) :: env.vars }
                ty sub st
            in
            let body =
              gen ~tail:true
                { env with labels = (jv, [ Types.int ]) :: env.labels }
                ty sub st
            in
            Join
              ( JNonRec
                  { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = rhs },
                body ) );
      ]
    in
    (* arithmetic at Int *)
    let candidates =
      if Types.equal ty Types.int then
        ( 2,
          fun () ->
            let a = gen ~tail:false no_labels Types.int sub st in
            let b = gen ~tail:false no_labels Types.int sub st in
            B.add a b )
        :: ( 1,
             fun () ->
               let a = gen ~tail:false no_labels Types.int sub st in
               let b = gen ~tail:false no_labels Types.int sub st in
               B.mul a b )
        :: candidates
      else candidates
    in
    let candidates =
      if Types.equal ty Types.bool then
        ( 2,
          fun () ->
            let a = gen ~tail:false no_labels Types.int sub st in
            let b = gen ~tail:false no_labels Types.int sub st in
            B.lt a b )
        :: candidates
      else candidates
    in
    let candidates =
      if Types.equal ty maybe_int then
        ( 2,
          fun () ->
            B.just Types.int (gen ~tail:false no_labels Types.int sub st) )
        :: candidates
      else candidates
    in
    let candidates =
      if Types.equal ty list_int then
        ( 2,
          fun () ->
            let h = gen ~tail:false no_labels Types.int sub st in
            let t = gen ~tail:false no_labels list_int sub st in
            B.cons Types.int h t )
        :: candidates
      else candidates
    in
    let candidates =
      if Types.equal ty i2i then
        ( 2,
          fun () ->
            let x = mk_var "a" Types.int in
            let body =
              gen ~tail:false
                { vars = (Types.int, x) :: env.vars; labels = [] }
                Types.int sub st
            in
            Lam (x, body) )
        :: candidates
      else candidates
    in
    (* bounded recursive join point: a loop over a decreasing counter,
       so evaluation always terminates. The loop body may jump to the
       loop itself (with n-1) or to outer labels. *)
    let candidates =
      ( 1,
        fun () ->
          let n = mk_var "n" Types.int in
          let jv = mk_join_var "loop" [] [ n ] in
          let start = int_range st 1 5 in
          let base =
            gen ~tail:true
              { env with vars = (Types.int, n) :: env.vars }
              ty (sub / 2) st
          in
          (* The non-jump branch sees only OUTER labels, so the counter
             strictly decreases and the loop always terminates. *)
          let step_tail =
            gen ~tail:true
              { vars = (Types.int, n) :: env.vars; labels = env.labels }
              ty (sub / 2) st
          in
          let rhs =
            B.if_
              (B.le (Var n) (B.int 0))
              base
              (Case
                 ( B.gt (Var n) (B.int 2),
                   [
                     {
                       alt_pat = PCon (Datacon.builtin "True", []);
                       alt_rhs =
                         Jump (jv, [], [ B.sub (Var n) (B.int 1) ], ty);
                     };
                     {
                       alt_pat = PCon (Datacon.builtin "False", []);
                       alt_rhs = step_tail;
                     };
                   ] ))
          in
          Join
            ( JRec
                [ { j_var = jv; j_tyvars = []; j_params = [ n ]; j_rhs = rhs } ],
              Jump (jv, [], [ B.int start ], ty) ) )
      :: candidates
    in
    (* jumps, only in tail position *)
    let candidates =
      if tail && env.labels <> [] then
        ( 4,
          fun () ->
            let jv, ptys = oneofl st env.labels in
            let args =
              List.map
                (fun pty -> gen ~tail:false no_labels pty (sub / 2) st)
                ptys
            in
            Jump (jv, [], args, ty) )
        :: candidates
      else candidates
    in
    frequency st candidates

and gen_alts ~tail env sty rty n st : alt list =
  if Types.equal sty Types.bool then
    let t = gen ~tail env rty n st in
    let f = gen ~tail env rty n st in
    [
      { alt_pat = PCon (Datacon.builtin "True", []); alt_rhs = t };
      { alt_pat = PCon (Datacon.builtin "False", []); alt_rhs = f };
    ]
  else if Types.equal sty maybe_int then begin
    let x = mk_var "mx" Types.int in
    let nothing_rhs = gen ~tail env rty n st in
    let just_rhs =
      gen ~tail { env with vars = (Types.int, x) :: env.vars } rty n st
    in
    [
      { alt_pat = PCon (Datacon.builtin "Nothing", []); alt_rhs = nothing_rhs };
      { alt_pat = PCon (Datacon.builtin "Just", [ x ]); alt_rhs = just_rhs };
    ]
  end
  else begin
    (* List Int *)
    let h = mk_var "h" Types.int in
    let t = mk_var "t" list_int in
    let nil_rhs = gen ~tail env rty n st in
    let cons_rhs =
      gen ~tail
        { env with vars = (Types.int, h) :: (list_int, t) :: env.vars }
        rty n st
    in
    [
      { alt_pat = PCon (Datacon.builtin "Nil", []); alt_rhs = nil_rhs };
      { alt_pat = PCon (Datacon.builtin "Cons", [ h; t ]); alt_rhs = cons_rhs };
    ]
  end

let program ?(size = default_size) st : expr =
  let ty = oneofl st all_types in
  let n = int_range st 2 size in
  gen ~tail:true { vars = []; labels = [] } ty n st

let program_of_seed ?size seed : expr =
  Ident.unsafe_reset_counter ();
  program ?size (Random.State.make [| seed |])

(* ------------------------------------------------------------------ *)
(* Mutation (coverage-guided fuzzing)                                  *)
(* ------------------------------------------------------------------ *)

(* Number of [Lit (Int _)] nodes in a term, for uniform selection. *)
let rec count_int_lits (e : expr) : int =
  match e with
  | Lit (Literal.Int _) -> 1
  | _ ->
      let sub =
        match e with
        | Var _ | Lit _ -> []
        | Con (_, _, args) | Prim (_, args) -> args
        | App (f, a) -> [ f; a ]
        | TyApp (f, _) -> [ f ]
        | Lam (_, b) | TyLam (_, b) -> [ b ]
        | Let (bind, body) -> List.map snd (bind_pairs bind) @ [ body ]
        | Case (scrut, alts) ->
            scrut :: List.map (fun a -> a.alt_rhs) alts
        | Join (jb, body) ->
            List.map (fun d -> d.j_rhs) (join_defns jb) @ [ body ]
        | Jump (_, _, args, _) -> args
      in
      List.fold_left (fun acc e -> acc + count_int_lits e) 0 sub

(* Replace the [k]-th (preorder) integer literal with [by]. The
   traversal threads the remaining index through a ref — literals are
   leaves, so order within a node's children is all that matters. *)
let replace_int_lit k ~by (e : expr) : expr =
  let remaining = ref k in
  let rec go (e : expr) : expr =
    match e with
    | Lit (Literal.Int _) ->
        if !remaining = 0 then begin
          decr remaining;
          by
        end
        else begin
          decr remaining;
          e
        end
    | Var _ | Lit _ -> e
    | Con (dc, phis, args) -> Con (dc, phis, List.map go args)
    | Prim (op, args) -> Prim (op, List.map go args)
    | App (f, a) ->
        let f = go f in
        App (f, go a)
    | TyApp (f, t) -> TyApp (go f, t)
    | Lam (x, b) -> Lam (x, go b)
    | TyLam (a, b) -> TyLam (a, go b)
    | Let (bind, body) ->
        let bind =
          match bind with
          | NonRec (x, rhs) -> NonRec (x, go rhs)
          | Strict (x, rhs) -> Strict (x, go rhs)
          | Rec pairs -> Rec (List.map (fun (x, rhs) -> (x, go rhs)) pairs)
        in
        Let (bind, go body)
    | Case (scrut, alts) ->
        let scrut = go scrut in
        Case
          (scrut, List.map (fun a -> { a with alt_rhs = go a.alt_rhs }) alts)
    | Join (jb, body) ->
        let jb =
          match jb with
          | JNonRec d -> JNonRec { d with j_rhs = go d.j_rhs }
          | JRec ds -> JRec (List.map (fun d -> { d with j_rhs = go d.j_rhs }) ds)
        in
        Join (jb, go body)
    | Jump (j, tys, args, ty) -> Jump (j, tys, List.map go args, ty)
  in
  go e

let closed_env = { vars = []; labels = [] }

(* Each operator preserves closedness and the seed's type; [ty_of]
   works on the closed well-typed programs the fuzzer feeds in. The
   wrappers deliberately hand the optimizer new material around the
   retained program: a dead binding (drop), a branch (case-of-case,
   share_alt), a join point around the whole term, a counting loop
   (contify_group, spec_constr fuel). *)
let mutate st (e : expr) : expr =
  let small = 6 in
  let perturb_literal () =
    match count_int_lits e with
    | 0 -> None
    | n ->
        let k = Random.State.int st n in
        let by = gen ~tail:false closed_env Types.int small st in
        Some (replace_int_lit k ~by e)
  in
  let wrap_let () =
    let rty = oneofl st all_types in
    let rhs = gen ~tail:false closed_env rty small st in
    let x = mk_var "m" rty in
    Some (Let (NonRec (x, rhs), e))
  in
  let wrap_case ty =
    let scrut = gen ~tail:false closed_env Types.bool small st in
    let other = gen ~tail:false closed_env ty small st in
    Some
      (Case
         ( scrut,
           [
             { alt_pat = PCon (Datacon.builtin "True", []); alt_rhs = e };
             { alt_pat = PCon (Datacon.builtin "False", []); alt_rhs = other };
           ] ))
  in
  let wrap_join ty =
    let x = mk_var "p" Types.int in
    let jv = mk_join_var "j" [] [ x ] in
    let arg = gen ~tail:false closed_env Types.int small st in
    Some
      (Join
         ( JNonRec { j_var = jv; j_tyvars = []; j_params = [ x ]; j_rhs = e },
           Jump (jv, [], [ arg ], ty) ))
  in
  let wrap_loop ty =
    let n = mk_var "n" Types.int in
    let jv = mk_join_var "loop" [] [ n ] in
    let start = int_range st 1 4 in
    let rhs =
      B.if_
        (B.le (Var n) (B.int 0))
        e
        (Jump (jv, [], [ B.sub (Var n) (B.int 1) ], ty))
    in
    Some
      (Join
         ( JRec
             [ { j_var = jv; j_tyvars = []; j_params = [ n ]; j_rhs = rhs } ],
           Jump (jv, [], [ B.int start ], ty) ))
  in
  (* Scaffolding the simplifier cannot evaluate away: a non-tail
     recursive function is a loop breaker, so [h 5] stays an opaque
     call and everything built from it resists constant folding. Around
     that opaque value: two bindings with identical right-hand sides
     (CSE), a lambda past the inline threshold (inline_too_big), and a
     small shared lambda (call-site inlining) — optimizer behaviours
     fresh generation essentially never produces. The scaffold is
     strict and total; its value gates a branch that always takes [e]. *)
  let wrap_opaque ty =
    let h = mk_var "h" (Types.arrows [ Types.int ] Types.int) in
    let n = mk_var "n" Types.int in
    let h_rhs =
      Lam
        ( n,
          B.if_
            (B.le (Var n) (B.int 0))
            (B.int 1)
            (B.add (App (Var h, B.sub (Var n) (B.int 1))) (B.int 2)) )
    in
    let x = mk_var "x" Types.int in
    let a = mk_var "a" Types.int in
    let b = mk_var "b" Types.int in
    let big = mk_var "big" (Types.arrows [ Types.int ] Types.int) in
    let w = mk_var "w" Types.int in
    let big_rhs =
      let rec pad acc k =
        if k > 24 then acc
        else pad (B.add acc (B.mul (Var w) (B.add (Var x) (B.int k)))) (k + 1)
      in
      Lam (w, pad (Var w) 1)
    in
    let sm = mk_var "sm" (Types.arrows [ Types.int ] Types.int) in
    let v = mk_var "v" Types.int in
    let sm_rhs = Lam (v, B.add (B.add (Var v) (Var v)) (B.int 3)) in
    let scaffold =
      Let
        ( Rec [ (h, h_rhs) ],
          Let
            ( NonRec (x, App (Var h, B.int 5)),
              Let
                ( NonRec (a, B.add (Var x) (B.int 7)),
                  Let
                    ( NonRec (b, B.add (Var x) (B.int 7)),
                      Let
                        ( NonRec (big, big_rhs),
                          Let
                            ( NonRec (sm, sm_rhs),
                              B.add
                                (B.add (B.add (Var a) (Var a)) (Var b))
                                (B.add
                                   (B.add
                                      (App (Var big, B.int 1))
                                      (App (Var big, B.int 2)))
                                   (B.add
                                      (App (Var sm, B.int 1))
                                      (App (Var sm, B.int 2)))) ) ) ) ) ) )
    in
    let other = gen ~tail:false closed_env ty small st in
    Some
      (Case
         ( B.le (B.int 0) scaffold,
           [
             { alt_pat = PCon (Datacon.builtin "True", []); alt_rhs = e };
             { alt_pat = PCon (Datacon.builtin "False", []); alt_rhs = other };
           ] ))
  in
  let result =
    match Syntax.ty_of e with
    | exception _ -> perturb_literal ()
    | ty ->
        frequency st
          [
            (3, perturb_literal);
            (2, wrap_let);
            (2, fun () -> wrap_case ty);
            (2, fun () -> wrap_join ty);
            (1, fun () -> wrap_loop ty);
            (2, fun () -> wrap_opaque ty);
          ]
  in
  match result with
  | Some e' -> e'
  | None -> (
      (* No integer literal to perturb: fall back to a wrapper. *)
      match wrap_let () with Some e' -> e' | None -> e)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Immediate subterms, each with the function that puts a replacement
   back in its place. *)
let children (e : expr) : (expr * (expr -> expr)) list =
  let each xs rebuild =
    let put i x' = List.mapi (fun j y -> if i = j then x' else y) xs in
    List.mapi (fun i x -> (x, fun x' -> rebuild (put i x'))) xs
  in
  match e with
  | Var _ | Lit _ -> []
  | Con (dc, tys, args) -> each args (fun args -> Con (dc, tys, args))
  | Prim (op, args) -> each args (fun args -> Prim (op, args))
  | App (f, a) -> [ (f, fun f -> App (f, a)); (a, fun a -> App (f, a)) ]
  | TyApp (f, ty) -> [ (f, fun f -> TyApp (f, ty)) ]
  | Lam (x, b) -> [ (b, fun b -> Lam (x, b)) ]
  | TyLam (a, b) -> [ (b, fun b -> TyLam (a, b)) ]
  | Let (bind, body) ->
      let rhss =
        match bind with
        | NonRec (x, rhs) -> [ (rhs, fun rhs -> NonRec (x, rhs)) ]
        | Strict (x, rhs) -> [ (rhs, fun rhs -> Strict (x, rhs)) ]
        | Rec pairs ->
            each (List.map snd pairs) (fun rhss ->
                Rec (List.map2 (fun (x, _) rhs -> (x, rhs)) pairs rhss))
      in
      (body, fun body -> Let (bind, body))
      :: List.map (fun (rhs, re) -> (rhs, fun rhs -> Let (re rhs, body))) rhss
  | Case (scrut, alts) ->
      let with_rhs a r = { a with alt_rhs = r } in
      (scrut, fun scrut -> Case (scrut, alts))
      :: each (List.map (fun a -> a.alt_rhs) alts) (fun rhss ->
             Case (scrut, List.map2 with_rhs alts rhss))
  | Join (jb, body) ->
      let rebuild_defns ds = function
        | JNonRec _ -> JNonRec (List.hd ds)
        | JRec _ -> JRec ds
      in
      let ds = join_defns jb in
      (body, fun body -> Join (jb, body))
      :: each (List.map (fun d -> d.j_rhs) ds) (fun rhss ->
             Join
               ( rebuild_defns
                   (List.map2 (fun d r -> { d with j_rhs = r }) ds rhss)
                   jb,
                 body ))
  | Jump (j, tys, args, ty) -> each args (fun args -> Jump (j, tys, args, ty))

(* Discharge an alternative's pattern binders with canonical values so
   its rhs can stand alone. *)
let discharge_alt (a : alt) : expr option =
  match a.alt_pat with
  | PLit _ | PDefault -> Some a.alt_rhs
  | PCon (_, xs) -> (
      try
        Some
          (List.fold_left
             (fun rhs (x : var) -> Subst.beta_reduce x (default_of x.v_ty) rhs)
             a.alt_rhs xs)
      with Invalid_argument _ -> None)

(* Rewrites of [e] itself and its subterms, then each child's own
   candidates put back in place: a child's candidate may keep the
   variables its parent binds, so none has a free variable [e] lacks. *)
let rec shrink (e : expr) : expr list =
  let structural =
    match e with
    | Let (NonRec (x, rhs), body) | Let (Strict (x, rhs), body) ->
        (* Let elimination by substitution (may not shrink if x is
           multi-use; the size filter below discards that case). *)
        [ Subst.beta_reduce x rhs body ]
    | Case (_, alts) -> List.filter_map discharge_alt alts
    | Join (_, body) -> [ body ]
    | _ -> []
  in
  let n = size e and fvs = free_vars e in
  let kids = children e in
  List.filter
    (fun c -> size c <= n && Ident.Set.subset (free_vars c) fvs)
    (structural @ List.map fst kids)
  @ List.concat_map
      (fun (child, rebuild) -> List.map rebuild (shrink child))
      kids

let minimize ?(steps = 500) ~failing (e : expr) : expr =
  let rec go fuel e =
    if fuel <= 0 then e
    else
      match List.find_opt failing (shrink e) with
      | Some smaller when size smaller < size e -> go (fuel - 1) smaller
      | Some same ->
          (* Equal-size candidate (e.g. a substitution that did not
             shrink): take it only if it unlocks further progress. *)
          let next = go (fuel - 1) same in
          if size next < size e then next else e
      | None -> e
  in
  go steps e
