(** Hindley–Milner type inference and elaboration to System F_J.

    The surface language is implicitly typed; F_J is explicitly typed
    System F. Inference is algorithm W with mutable unification
    variables; elaboration inserts the type abstractions and
    applications:

    - each top-level [def] is generalized — its residual unification
      variables become [/\a] binders;
    - each occurrence of a top-level name records its instantiation and
      becomes a [TyApp] spine;
    - local [let]s are monomorphic (a deliberate simplification, as in
      many intermediate passes; polymorphism lives at the top level).

    The elaborated program contains {e no} join points: they are
    inferred later by {!Fj_core.Contify} and created by
    {!Fj_core.Simplify}, exactly as in the paper (Sec. 4, 7). *)

open Fj_core
open Ast

exception Type_error of string * pos

let err pos fmt = Fmt.kstr (fun m -> raise (Type_error (m, pos))) fmt

(* ------------------------------------------------------------------ *)
(* Internal types                                                      *)
(* ------------------------------------------------------------------ *)

(* A unification variable is known by the identity of its cell. *)
type ity = IVar of tv ref | IArrow of ity * ity | ICon of string * ity list
and tv = Unbound | Link of ity

let fresh_tv () = IVar (ref Unbound)

let i_int = ICon ("Int", [])
let i_char = ICon ("Char", [])
let i_string = ICon ("String", [])
let i_bool = ICon ("Bool", [])
let i_list t = ICon ("List", [ t ])
let i_pair a b = ICon ("Pair", [ a; b ])

let rec repr = function
  | IVar r as t -> ( match !r with Link t' -> repr t' | Unbound -> t)
  | t -> t

(* Unbound variables print as t1, t2, ... in order of first appearance
   among the types [names] has printed, so one message numbers its
   variables consistently and independently of earlier inference. *)
let rec pp_ity names ppf t =
  match repr t with
  | IVar r ->
      let n =
        match List.assq_opt r !names with
        | Some n -> n
        | None ->
            let n = List.length !names + 1 in
            names := (r, n) :: !names;
            n
      in
      Fmt.pf ppf "t%d" n
  | IArrow (a, b) -> Fmt.pf ppf "(%a -> %a)" (pp_ity names) a (pp_ity names) b
  | ICon (c, []) -> Fmt.string ppf c
  | ICon (c, args) ->
      Fmt.pf ppf "(%s%a)" c
        Fmt.(list ~sep:nop (fun ppf t -> Fmt.pf ppf " %a" (pp_ity names) t))
        args

let rec occurs_tv (r : tv ref) t =
  match repr t with
  | IVar r' -> r == r'
  | IArrow (a, b) -> occurs_tv r a || occurs_tv r b
  | ICon (_, args) -> List.exists (occurs_tv r) args

(* A type error quoting [t1] and [t2], which share one variable naming. *)
let type_error pos fmt t1 t2 =
  let pp = pp_ity (ref []) in
  err pos fmt pp t1 pp t2

let rec unify pos t1 t2 =
  let t1 = repr t1 and t2 = repr t2 in
  match (t1, t2) with
  | IVar r1, IVar r2 when r1 == r2 -> ()
  | IVar r, t | t, IVar r ->
      if occurs_tv r t then
        type_error pos
          "occurs check: cannot construct the infinite type %a ~ %a" t1 t2;
      r := Link t
  | IArrow (a1, b1), IArrow (a2, b2) ->
      unify pos a1 a2;
      unify pos b1 b2
  | ICon (c1, args1), ICon (c2, args2)
    when String.equal c1 c2 && List.length args1 = List.length args2 ->
      List.iter2 (unify pos) args1 args2
  | _ -> type_error pos "type mismatch: %a does not unify with %a" t1 t2

(* ------------------------------------------------------------------ *)
(* Schemes and environments                                            *)
(* ------------------------------------------------------------------ *)

(* A scheme quantifies over specific unbound tv cells, which after
   generalization are never unified again. *)
type scheme = { q : tv ref list; body : ity }

(* Instantiate, returning the body copy and the fresh type arguments in
   quantifier order. *)
let instantiate (s : scheme) : ity * ity list =
  let fresh = List.map (fun _ -> fresh_tv ()) s.q in
  let assoc = List.combine s.q fresh in
  let rec copy t =
    match repr t with
    | IVar r -> (
        match List.assq_opt r assoc with Some t' -> t' | None -> IVar r)
    | IArrow (a, b) -> IArrow (copy a, copy b)
    | ICon (c, args) -> ICon (c, List.map copy args)
  in
  (copy s.body, fresh)

(* Convert a (rank-1, forall-prefixed) core type to an ity given a
   mapping for its quantified variables. Used for data constructors. *)
let rec ity_of_core (m : ity Ident.Map.t) (t : Types.t) : ity =
  match t with
  | Types.Var a -> (
      match Ident.Map.find_opt a m with
      | Some it -> it
      | None -> invalid_arg "ity_of_core: unbound type variable")
  | Types.Con c -> ICon (c, [])
  | Types.Arrow (a, b) -> IArrow (ity_of_core m a, ity_of_core m b)
  | Types.App _ -> (
      let head, args = Types.split_apps t in
      match head with
      | Types.Con c -> ICon (c, List.map (ity_of_core m) args)
      | Types.Var a -> (
          match Ident.Map.find_opt a m with
          | Some (ICon (c, [])) when args = [] -> ICon (c, [])
          | _ -> invalid_arg "ity_of_core: higher-kinded type variable")
      | _ -> invalid_arg "ity_of_core: bad type application")
  | Types.Forall _ -> invalid_arg "ity_of_core: nested forall"

type env = {
  datacons : Datacon.env;
  tops : (string * (scheme * Syntax.var * Ident.t list)) list;
      (** Top-level defs: scheme, core binder, quantifier idents. *)
  locals : (string * (ity * Syntax.var)) list;  (** Monomorphic. *)
}

(* [List.assoc_opt] without polymorphic compare: the first binding of
   [x] wins, so inner bindings shadow outer ones. *)
let rec assoc_string x = function
  | [] -> None
  | (y, v) :: rest -> if String.equal x y then Some v else assoc_string x rest

let lookup_local env x = assoc_string x env.locals
let lookup_top env x = assoc_string x env.tops

(* ------------------------------------------------------------------ *)
(* Zonking: ity -> Types.t                                             *)
(* ------------------------------------------------------------------ *)

(* [quant] maps generalized tv cells to core type variables; any other
   residual unification variable is ambiguous and defaults to [Unit]. *)
type zonker = { quant : (tv ref * Ident.t) list }

let rec zonk (z : zonker) (t : ity) : Types.t =
  match repr t with
  | IVar r -> (
      match List.assq_opt r z.quant with
      | Some a -> Types.Var a
      | None ->
          (* Ambiguous type: default. *)
          r := Link (ICon ("Unit", []));
          Types.unit)
  | IArrow (a, b) -> Types.Arrow (zonk z a, zonk z b)
  | ICon (c, args) -> Types.apps (Types.Con c) (List.map (zonk z) args)

(* ------------------------------------------------------------------ *)
(* Inference + elaboration                                             *)
(* ------------------------------------------------------------------ *)

(* Elaboration happens in one pass with inference: we build a thunked
   core expression that reads the final (zonked) types only when
   forced, after the whole def has been inferred. *)
type later = zonker -> Syntax.expr

(* Constructor schemes: instantiate [typeof K]. *)
let con_scheme env pos name : Datacon.t * ity list * ity =
  match Datacon.find_con env.datacons name with
  | None -> err pos "unknown data constructor %s" name
  | Some dc ->
      let fresh = List.map (fun _ -> fresh_tv ()) dc.univ in
      let m =
        List.fold_left2
          (fun m a t -> Ident.Map.add a t m)
          Ident.Map.empty dc.univ fresh
      in
      let arg_tys = List.map (ity_of_core m) dc.arg_tys in
      let res = ICon (dc.tycon, fresh) in
      (dc, fresh, List.fold_right (fun a b -> IArrow (a, b)) arg_tys res)

(* Primitive operations exposed as surface functions. *)
let prim_builtins : (string * Primop.t) list =
  [
    ("ord", Primop.Ord);
    ("chr", Primop.Chr);
    ("strLen", Primop.StrLen);
    ("strIdx", Primop.StrIdx);
  ]

let binop_prim = function
  | Add -> Primop.Add
  | Sub -> Primop.Sub
  | Mul -> Primop.Mul
  | Div -> Primop.Div
  | Mod -> Primop.Mod
  | Eq -> Primop.Eq
  | Ne -> Primop.Ne
  | Lt -> Primop.Lt
  | Le -> Primop.Le
  | Gt -> Primop.Gt
  | Ge -> Primop.Ge
  | And | Or | Cons -> invalid_arg "binop_prim"

(* The main inference function: returns the type and the deferred core
   builder. A constructor occurrence is represented curried, as an
   eta-expanded builder; saturated uses are recovered by the Simplifier
   (beta + constructor saturation are immediate). To keep the common
   case allocation-faithful we saturate syntactic application spines
   here instead. *)
let rec infer (env : env) (e : expr) : ity * later =
  match e.it with
  | EInt n ->
      (i_int, fun _ -> Syntax.Lit (Literal.Int n))
  | EChar c -> (i_char, fun _ -> Syntax.Lit (Literal.Char c))
  | EStr s -> (i_string, fun _ -> Syntax.Lit (Literal.String s))
  | EVar x -> (
      match lookup_local env x with
      | Some (it, v) ->
          (* The binder's placeholder type is patched at zonk time; the
             occurrence must carry the same final type. *)
          (it, fun z -> Syntax.Var { v with Syntax.v_ty = zonk z it })
      | None -> (
          match lookup_top env x with
          | Some (sch, v, qids) ->
              let it, inst = instantiate sch in
              ( it,
                fun z ->
                  let tys = List.map (zonk z) inst in
                  ignore qids;
                  Syntax.ty_apps (Syntax.Var v) tys )
          | None -> (
              match assoc_string x prim_builtins with
              | Some op ->
                  let arg_tys, res = Primop.signature op in
                  let ty =
                    List.fold_right
                      (fun a b -> IArrow (ity_of_prim a, b))
                      arg_tys (ity_of_prim res)
                  in
                  ( ty,
                    fun _ ->
                      let vs =
                        List.map (fun t -> Syntax.mk_var "p" t) arg_tys
                      in
                      Syntax.lams vs
                        (Syntax.Prim
                           (op, List.map (fun v -> Syntax.Var v) vs)) )
              | None -> err e.pos "variable %s is not in scope" x)))
  | ECon _ | EApp _ -> infer_spine env e
  | ELam (params, body) ->
      let locals, core_params =
        List.fold_left
          (fun (ls, ps) p ->
            let it = fresh_tv () in
            let v = Syntax.mk_var p (Types.unit (* patched at zonk *)) in
            ((p, (it, v)) :: ls, (p, it, v) :: ps))
          (env.locals, []) params
      in
      let core_params = List.rev core_params in
      let body_ty, body_l = infer { env with locals } body in
      let ty =
        List.fold_right (fun (_, it, _) acc -> IArrow (it, acc)) core_params
          body_ty
      in
      ( ty,
        fun z ->
          List.fold_right
            (fun (_, it, v) acc ->
              Syntax.Lam ({ v with Syntax.v_ty = zonk z it }, acc))
            core_params (body_l z) )
  | ELet { recursive; name; params; rhs; body } ->
      let fn_ty = fresh_tv () in
      let v = Syntax.mk_var name Types.unit in
      let rhs_env =
        if recursive then { env with locals = (name, (fn_ty, v)) :: env.locals }
        else env
      in
      let rhs_expr =
        if params = [] then rhs
        else { it = ELam (params, rhs); pos = e.pos }
      in
      let rhs_ty, rhs_l = infer rhs_env rhs_expr in
      unify e.pos fn_ty rhs_ty;
      let body_ty, body_l =
        infer { env with locals = (name, (fn_ty, v)) :: env.locals } body
      in
      ( body_ty,
        fun z ->
          let v = { v with Syntax.v_ty = zonk z fn_ty } in
          let b =
            if recursive then Syntax.Rec [ (v, fix_var v (rhs_l z)) ]
            else Syntax.NonRec (v, rhs_l z)
          in
          Syntax.Let (b, body_l z) )
  | EIf (c, t, f) ->
      let ct, cl = infer env c in
      unify c.pos ct i_bool;
      let tt, tl = infer env t in
      let ft, fl = infer env f in
      unify e.pos tt ft;
      ( tt,
        fun z ->
          Syntax.Case
            ( cl z,
              [
                {
                  alt_pat = Syntax.PCon (Datacon.builtin "True", []);
                  alt_rhs = tl z;
                };
                {
                  alt_pat = Syntax.PCon (Datacon.builtin "False", []);
                  alt_rhs = fl z;
                };
              ] ) )
  | EBinop (And, a, b) ->
      infer env
        { e with it = EIf (a, b, { e with it = ECon "False" }) }
  | EBinop (Or, a, b) ->
      infer env
        { e with it = EIf (a, { e with it = ECon "True" }, b) }
  | EBinop (Cons, hd, tl) ->
      infer_spine env
        {
          e with
          it = EApp ({ e with it = EApp ({ e with it = ECon "Cons" }, hd) }, tl);
        }
  | EBinop ((Eq | Ne) as op, a, b) -> (
      (* Equality is overloaded over Int and Char: resolve from the
         operand types, defaulting to Int. *)
      let at, al = infer env a in
      let bt, bl = infer env b in
      unify e.pos at bt;
      let is_char = match repr at with ICon ("Char", []) -> true | _ -> false in
      if not is_char then unify a.pos at i_int;
      match (op, is_char) with
      | Eq, false ->
          (i_bool, fun z -> Syntax.Prim (Primop.Eq, [ al z; bl z ]))
      | Ne, false ->
          (i_bool, fun z -> Syntax.Prim (Primop.Ne, [ al z; bl z ]))
      | Eq, true ->
          (i_bool, fun z -> Syntax.Prim (Primop.CharEq, [ al z; bl z ]))
      | Ne, true ->
          ( i_bool,
            fun z ->
              Syntax.Case
                ( Syntax.Prim (Primop.CharEq, [ al z; bl z ]),
                  [
                    {
                      alt_pat = Syntax.PCon (Datacon.builtin "True", []);
                      alt_rhs = Syntax.Con (Datacon.builtin "False", [], []);
                    };
                    {
                      alt_pat = Syntax.PCon (Datacon.builtin "False", []);
                      alt_rhs = Syntax.Con (Datacon.builtin "True", [], []);
                    };
                  ] ) )
      | _ -> assert false)
  | EBinop (op, a, b) ->
      let p = binop_prim op in
      let arg_tys, res = Primop.signature p in
      let want_a, want_b =
        match arg_tys with [ x; y ] -> (x, y) | _ -> assert false
      in
      let at, al = infer env a in
      let bt, bl = infer env b in
      unify a.pos at (ity_of_prim want_a);
      unify b.pos bt (ity_of_prim want_b);
      ( ity_of_prim res,
        fun z -> Syntax.Prim (p, [ al z; bl z ]) )
  | ENeg a ->
      let at, al = infer env a in
      unify a.pos at i_int;
      (i_int, fun z -> Syntax.Prim (Primop.Neg, [ al z ]))
  | EList elems ->
      let elt = fresh_tv () in
      let ls =
        List.map
          (fun el ->
            let t, l = infer env el in
            unify el.pos t elt;
            l)
          elems
      in
      ( i_list elt,
        fun z ->
          let phi = zonk z elt in
          let dc_cons = Datacon.builtin "Cons" in
          let dc_nil = Datacon.builtin "Nil" in
          List.fold_right
            (fun l acc -> Syntax.Con (dc_cons, [ phi ], [ l z; acc ]))
            ls
            (Syntax.Con (dc_nil, [ phi ], [])) )
  | ETuple (a, b) ->
      let at, al = infer env a in
      let bt, bl = infer env b in
      ( i_pair at bt,
        fun z ->
          Syntax.Con
            ( Datacon.builtin "MkPair",
              [ zonk z at; zonk z bt ],
              [ al z; bl z ] ) )
  | ECase (scrut, alts) -> infer_case env e.pos scrut alts

and ity_of_prim (t : Types.t) : ity =
  match t with
  | Types.Con c -> ICon (c, [])
  | _ -> invalid_arg "ity_of_prim"

(* If the recursive binder was shadowed... it is not: [fix_var] is
   identity; recursion is already wired through the environment. *)
and fix_var _v rhs = rhs

(* Application spines: saturate constructors where syntactically
   possible; eta-expand under-applied constructors. *)
and infer_spine env (e : expr) : ity * later =
  let rec spine e acc =
    match e.it with
    | EApp (f, a) -> spine f (a :: acc)
    | _ -> (e, acc)
  in
  let head, args = spine e [] in
  match head.it with
  | ECon name ->
      let dc, inst, con_ty = con_scheme env head.pos name in
      let arity = Datacon.arity dc in
      let n_args = List.length args in
      (* Infer argument types against the constructor type. *)
      let rec apply_args ty args acc_l =
        match args with
        | [] -> (ty, List.rev acc_l)
        | a :: rest -> (
            let at, al = infer env a in
            match repr ty with
            | IArrow (want, res) ->
                unify a.pos at want;
                apply_args res rest (al :: acc_l)
            | _ -> err a.pos "constructor %s applied to too many arguments" name)
      in
      let res_ty, arg_ls = apply_args con_ty args [] in
      if n_args = arity then
        ( res_ty,
          fun z ->
            Syntax.Con (dc, List.map (zonk z) inst, List.map (fun l -> l z) arg_ls)
        )
      else begin
        (* Under-applied: eta-expand the missing parameters. *)
        let rec missing ty k =
          if k = 0 then []
          else
            match repr ty with
            | IArrow (want, res) -> want :: missing res (k - 1)
            | _ -> assert false
        in
        let missing_tys = missing res_ty (arity - n_args) in
        let final_ty =
          List.fold_left
            (fun ty _ -> match repr ty with IArrow (_, r) -> r | _ -> assert false)
            res_ty missing_tys
        in
        ignore final_ty;
        ( res_ty,
          fun z ->
            let extra =
              List.map (fun it -> Syntax.mk_var "eta" (zonk z it)) missing_tys
            in
            Syntax.lams extra
              (Syntax.Con
                 ( dc,
                   List.map (zonk z) inst,
                   List.map (fun l -> l z) arg_ls
                   @ List.map (fun v -> Syntax.Var v) extra )) )
      end
  | _ ->
      (* Ordinary application. *)
      let head_ty, head_l = infer env head in
      let rec apply ty args acc_l =
        match args with
        | [] -> (ty, acc_l)
        | a :: rest ->
            let at, al = infer env a in
            let res = fresh_tv () in
            unify a.pos ty (IArrow (at, res));
            apply res rest (fun z -> Syntax.App (acc_l z, al z))
      in
      apply head_ty args head_l

and infer_case env pos scrut alts : ity * later =
  let scrut_ty, scrut_l = infer env scrut in
  let res_ty = fresh_tv () in
  if alts = [] then err pos "empty case expression";
  let alt_ls =
    List.map
      (fun (p, rhs) ->
        match p with
        | Ast.PWild ->
            let rt, rl = infer env rhs in
            unify rhs.pos rt res_ty;
            fun z -> { Syntax.alt_pat = Syntax.PDefault; alt_rhs = rl z }
        | Ast.PInt n ->
            unify pos scrut_ty i_int;
            let rt, rl = infer env rhs in
            unify rhs.pos rt res_ty;
            fun z ->
              { Syntax.alt_pat = Syntax.PLit (Literal.Int n); alt_rhs = rl z }
        | Ast.PChar c ->
            unify pos scrut_ty i_char;
            let rt, rl = infer env rhs in
            unify rhs.pos rt res_ty;
            fun z ->
              { Syntax.alt_pat = Syntax.PLit (Literal.Char c); alt_rhs = rl z }
        | Ast.PTuple (a, b) ->
            let ta = fresh_tv () and tb = fresh_tv () in
            unify pos scrut_ty (i_pair ta tb);
            let va = Syntax.mk_var a Types.unit
            and vb = Syntax.mk_var b Types.unit in
            let locals = (a, (ta, va)) :: (b, (tb, vb)) :: env.locals in
            let rt, rl = infer { env with locals } rhs in
            unify rhs.pos rt res_ty;
            fun z ->
              {
                Syntax.alt_pat =
                  Syntax.PCon
                    ( Datacon.builtin "MkPair",
                      [
                        { va with Syntax.v_ty = zonk z ta };
                        { vb with Syntax.v_ty = zonk z tb };
                      ] );
                alt_rhs = rl z;
              }
        | Ast.PCon (cname, binders) ->
            let dc, inst, con_ty = con_scheme env pos cname in
            if List.length binders <> Datacon.arity dc then
              err pos "pattern %s: expected %d binders, got %d" cname
                (Datacon.arity dc) (List.length binders);
            (* con_ty = args -> T inst *)
            let rec fields ty =
              match repr ty with
              | IArrow (a, r) -> a :: fields r
              | _ -> []
            in
            let field_tys = fields con_ty in
            unify pos scrut_ty (ICon (dc.tycon, inst));
            let bvars =
              List.map2
                (fun b t -> (b, t, Syntax.mk_var b Types.unit))
                binders field_tys
            in
            let locals =
              List.fold_left
                (fun ls (b, t, v) -> (b, (t, v)) :: ls)
                env.locals bvars
            in
            let rt, rl = infer { env with locals } rhs in
            unify rhs.pos rt res_ty;
            fun z ->
              {
                Syntax.alt_pat =
                  Syntax.PCon
                    ( dc,
                      List.map
                        (fun (_, t, v) -> { v with Syntax.v_ty = zonk z t })
                        bvars );
                alt_rhs = rl z;
              })
      alts
  in
  ( res_ty,
    fun z -> Syntax.Case (scrut_l z, List.map (fun f -> f z) alt_ls) )

(* ------------------------------------------------------------------ *)
(* Declarations and programs                                           *)
(* ------------------------------------------------------------------ *)

(* Free unification variables of a (zonk-free) type. *)
let rec free_tvs t acc =
  match repr t with
  | IVar r -> if List.memq r acc then acc else r :: acc
  | IArrow (a, b) -> free_tvs b (free_tvs a acc)
  | ICon (_, args) -> List.fold_left (fun acc t -> free_tvs t acc) acc args

let sty_to_core pos (tyvars : (string * Ident.t) list) (t : sty) : Types.t =
  let rec go = function
    | SVar a -> (
        match List.assoc_opt a tyvars with
        | Some id -> Types.Var id
        | None -> err pos "unbound type variable %s" a)
    | SCon (c, args) -> Types.apps (Types.Con c) (List.map go args)
    | SArrow (a, b) -> Types.Arrow (go a, go b)
  in
  go t

type checked = {
  env : Datacon.env;  (** Datatype environment including declarations. *)
  defs : (string * Syntax.var * Syntax.expr) list;
      (** Elaborated top-level definitions, in order. *)
  main : Syntax.expr;  (** The elaborated body of [main]. *)
}

(** Typecheck and elaborate a whole program. The result's [main] is the
    body of the [main] definition with all other definitions in scope
    via [defs]; use {!link} to obtain a single closed expression. *)
let check_program ?(datacons = Datacon.builtins) (prog : program) : checked =
  let denv = ref datacons in
  let env = ref { datacons = !denv; tops = []; locals = [] } in
  let defs = ref [] in
  let main = ref None in
  List.iter
    (fun decl ->
      match decl with
      | DData { name; tyvars; cons; pos } ->
          let ids = List.map (fun v -> (v, Ident.fresh v)) tyvars in
          let cons' =
            List.map
              (fun (cname, fields) ->
                (cname, List.map (sty_to_core pos ids) fields))
              cons
          in
          (try
             denv :=
               Datacon.declare !denv ~name ~tyvars:(List.map snd ids) cons'
           with Datacon.Duplicate d -> err pos "duplicate declaration of %s" d);
          env := { !env with datacons = !denv }
      | DDef { name; params; rhs; pos } ->
          let fn_ty = fresh_tv () in
          let v_placeholder = Syntax.mk_var name Types.unit in
          let rhs_expr =
            if params = [] then rhs else { it = ELam (params, rhs); pos }
          in
          (* Self-recursion: monomorphic binding of the def's own name. *)
          let mono_var = Syntax.mk_var name Types.unit in
          let rec_env =
            { !env with locals = [ (name, (fn_ty, mono_var)) ] }
          in
          let rhs_ty, rhs_l = infer rec_env rhs_expr in
          unify pos fn_ty rhs_ty;
          (* Generalize. *)
          let qtvs = free_tvs fn_ty [] in
          let qids = List.map (fun _ -> Ident.fresh "a") qtvs in
          let z = { quant = List.combine qtvs qids } in
          let mono_core_ty = zonk z fn_ty in
          let poly_ty = Types.foralls qids mono_core_ty in
          let v = { v_placeholder with Syntax.v_ty = poly_ty } in
          let mono_var = { mono_var with Syntax.v_ty = mono_core_ty } in
          let core_rhs_mono = rhs_l z in
          let is_recursive = Syntax.occurs mono_var.v_name core_rhs_mono in
          let core_rhs =
            let inner =
              if is_recursive then
                Syntax.Let
                  (Syntax.Rec [ (mono_var, core_rhs_mono) ], Syntax.Var mono_var)
              else core_rhs_mono
            in
            Syntax.ty_lams qids inner
          in
          let scheme = { q = qtvs; body = fn_ty } in
          env := { !env with tops = (name, (scheme, v, qids)) :: !env.tops };
          defs := (name, v, core_rhs) :: !defs;
          if name = "main" then main := Some (Syntax.Var v))
    prog;
  match !main with
  | None -> raise (Type_error ("program has no 'main' definition", { line = 0; col = 0 }))
  | Some m ->
      { env = !denv; defs = List.rev !defs; main = m }

(** Link a checked program into one closed core expression: nested lets
    around (an instantiation of) [main], binding only the definitions
    [main] reaches, in source order. *)
let link (c : checked) : Syntax.expr =
  let body =
    (* main may have been generalized; instantiate residual quantifiers
       at Unit. *)
    match c.main with
    | Syntax.Var v ->
        let qs, _ = Types.split_foralls v.Syntax.v_ty in
        Syntax.ty_apps (Syntax.Var v) (List.map (fun _ -> Types.unit) qs)
    | e -> e
  in
  (* A definition sees only those before it, so one backward walk
     closes the live set. *)
  let _, kept =
    List.fold_right
      (fun ((_, v, rhs) as d) (live, kept) ->
        if Ident.Set.mem v.Syntax.v_name live then
          (Ident.Set.union (Syntax.free_vars rhs) live, d :: kept)
        else (live, kept))
      c.defs
      (Syntax.free_vars body, [])
  in
  List.fold_right
    (fun (_, v, rhs) acc -> Syntax.Let (Syntax.NonRec (v, rhs), acc))
    kept body

(** Parse, typecheck, elaborate and link in one step. *)
let compile ?(datacons = Datacon.builtins) (src : string) :
    Datacon.env * Syntax.expr =
  let prog = Parser.parse src in
  let c = check_program ~datacons prog in
  (c.env, link c)
