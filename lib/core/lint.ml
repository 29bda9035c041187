(** Core Lint: the internal typechecker for System F_J (Fig. 2).

    The judgement carries two environments: [gamma] for term variables
    and type variables, and [delta] for join points. [delta] is {e
    reset} in every premise whose runtime context is not statically
    known — function arguments, [let] right-hand sides, and lambda
    bodies — which is what keeps jumps from being used as first-class
    effects (Sec. 3). It is propagated into evaluation positions (case
    scrutinees, application heads) and tail positions (case branches,
    let/join bodies, join right-hand sides).

    Like GHC's Core Lint, this checker runs between optimizer passes in
    the test suite and "forensically identifies" passes that destroy
    join points or types (Sec. 7). *)

open Syntax

type error = { message : string; context : expr option }

exception Lint_error of error

let fail ?context fmt =
  Fmt.kstr (fun message -> raise (Lint_error { message; context })) fmt

let pp_error ppf { message; context } =
  match context with
  | None -> Fmt.string ppf message
  | Some e -> Fmt.pf ppf "%s@.  in: %a" message Pretty.pp e

type env = {
  datacons : Datacon.env;
  tyvars : Ident.Set.t;  (** Type variables in scope. *)
  gamma : Types.t Ident.Tbl.t;
      (** Term variables in scope: one table per run, shared by every
          [env] of it and scoped by {!push} and {!pop}, so binding a
          variable copies no path. *)
  delta : (Ident.t list * Types.t list) Ident.Map.t;
      (** Join points in scope: type parameters and argument types. *)
}

(* Sized for the small trees most runs see; it grows as it must. *)
let init_env datacons =
  {
    datacons;
    tyvars = Ident.Set.empty;
    gamma = Ident.Tbl.create 8;
    delta = Ident.Map.empty;
  }

(** Reset [delta]: used for premises whose runtime context is unknown. *)
let no_joins env =
  if Ident.Map.is_empty env.delta then env
  else { env with delta = Ident.Map.empty }

let bind_tyvar a env = { env with tyvars = Ident.Set.add a env.tyvars }
let bind_tyvars tvs env = List.fold_left (fun e a -> bind_tyvar a e) env tvs

(* [push] brings a term variable into scope, shadowing any earlier
   binding of the same unique; [pop] ends its scope, uncovering what
   it shadowed. A failure ends the whole run, so an exception needs no
   [pop]. *)
let push env (v : var) = Ident.Tbl.add env.gamma v.v_name v.v_ty
let pop env (v : var) = Ident.Tbl.remove env.gamma v.v_name

let rec push_all env = function
  | [] -> ()
  | v :: vs ->
      push env v;
      push_all env vs

let rec pop_all env = function
  | [] -> ()
  | v :: vs ->
      pop env v;
      pop_all env vs

let bind_join (d : join_defn) env =
  {
    env with
    delta =
      Ident.Map.add d.j_var.v_name
        (d.j_tyvars, List.map (fun p -> p.v_ty) d.j_params)
        env.delta;
  }

(* ------------------------------------------------------------------ *)
(* Type well-formedness (a simple kind check)                          *)
(* ------------------------------------------------------------------ *)

let rec check_ty env (ty : Types.t) =
  match ty with
  | Types.Var a ->
      if not (Ident.Set.mem a env.tyvars) then
        fail "type variable %a not in scope" Ident.pp a
  | Types.Con c ->
      if not (is_prim_tycon c) && Datacon.find_tycon env.datacons c = None
      then fail "unknown type constructor %s" c;
      (match Datacon.find_tycon env.datacons c with
      | Some tc when tc.tc_tyvars <> [] ->
          fail "type constructor %s is under-applied" c
      | _ -> ())
  | Types.App _ -> (
      let head, args = Types.split_apps ty in
      List.iter (check_ty env) args;
      match head with
      | Types.Con c -> (
          match Datacon.find_tycon env.datacons c with
          | None -> fail "unknown type constructor %s" c
          | Some tc ->
              if List.length tc.tc_tyvars <> List.length args then
                fail "type constructor %s applied to %d arguments, expects %d"
                  c (List.length args)
                  (List.length tc.tc_tyvars))
      | Types.Var a ->
          if not (Ident.Set.mem a env.tyvars) then
            fail "type variable %a not in scope" Ident.pp a
      | _ -> fail "ill-formed type application head")
  | Types.Arrow (s, t) ->
      check_ty env s;
      check_ty env t
  | Types.Forall (a, t) -> check_ty (bind_tyvar a env) t

and is_prim_tycon c =
  match c with "Int" | "Char" | "String" -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Term typing                                                         *)
(* ------------------------------------------------------------------ *)

let rec infer env (e : expr) : Types.t =
  match e with
  | Var v -> (
      match Ident.Tbl.find_opt env.gamma v.v_name with
      | None ->
          if Ident.Map.mem v.v_name env.delta then
            fail ~context:e "join point %a used as a first-class value"
              Ident.pp v.v_name
          else fail ~context:e "variable %a not in scope" Ident.pp v.v_name
      | Some ty ->
          if not (Types.equal ty v.v_ty) then
            fail ~context:e "variable %a occurrence type %a differs from %a"
              Ident.pp v.v_name Types.pp v.v_ty Types.pp ty;
          ty)
  | Lit l -> Literal.ty l
  | Con (dc, phis, es) ->
      (match Datacon.find_con env.datacons dc.name with
      | None -> fail ~context:e "unknown data constructor %s" dc.name
      | Some _ -> ());
      if List.length phis <> List.length dc.univ then
        fail ~context:e "constructor %s: %d type arguments, expects %d"
          dc.name (List.length phis) (List.length dc.univ);
      List.iter (check_ty env) phis;
      let arg_tys = Datacon.instantiate_args dc phis in
      if List.length es <> List.length arg_tys then
        fail ~context:e "constructor %s: %d arguments, expects %d" dc.name
          (List.length es) (List.length arg_tys);
      List.iter2
        (fun arg want ->
          let got = infer (no_joins env) arg in
          if not (Types.equal got want) then
            fail ~context:e "constructor %s: argument has type %a, wants %a"
              dc.name Types.pp got Types.pp want)
        es arg_tys;
      Types.apps (Types.Con dc.tycon) phis
  | Prim (op, es) ->
      let arg_tys, res = Primop.signature op in
      if List.length es <> List.length arg_tys then
        fail ~context:e "primop %s: arity mismatch" (Primop.name op);
      List.iter2
        (fun arg want ->
          let got = infer (no_joins env) arg in
          if not (Types.equal got want) then
            fail ~context:e "primop %s: argument has type %a, wants %a"
              (Primop.name op) Types.pp got Types.pp want)
        es arg_tys;
      res
  | App (f, a) -> (
      (* Delta flows into the head (evaluation position) but is reset
         in the argument. *)
      match infer env f with
      | Types.Arrow (s, t) ->
          let got = infer (no_joins env) a in
          if not (Types.equal got s) then
            fail ~context:e "argument has type %a, function expects %a"
              Types.pp got Types.pp s;
          t
      | ty -> fail ~context:e "applying non-function of type %a" Types.pp ty)
  | TyApp (f, phi) -> (
      check_ty env phi;
      match infer env f with
      | Types.Forall (a, body) -> Types.subst1 a phi body
      | ty ->
          fail ~context:e "type-applying non-polymorphic type %a" Types.pp ty)
  | Lam (x, b) ->
      check_ty env x.v_ty;
      push env x;
      let t = infer (no_joins env) b in
      pop env x;
      Types.Arrow (x.v_ty, t)
  | TyLam (a, b) ->
      let t = infer (no_joins (bind_tyvar a env)) b in
      Types.Forall (a, t)
  | Let ((NonRec (x, rhs) | Strict (x, rhs)), body) ->
      check_ty env x.v_ty;
      let got = infer (no_joins env) rhs in
      if not (Types.equal got x.v_ty) then
        fail ~context:e "let binder %a : %a but rhs has type %a" Ident.pp
          x.v_name Types.pp x.v_ty Types.pp got;
      push env x;
      let t = infer env body in
      pop env x;
      t
  | Let (Rec pairs, body) ->
      let xs = List.map fst pairs in
      push_all env xs;
      List.iter
        (fun ((x : var), rhs) ->
          check_ty env x.v_ty;
          let got = infer (no_joins env) rhs in
          if not (Types.equal got x.v_ty) then
            fail ~context:e "letrec binder %a : %a but rhs has type %a"
              Ident.pp x.v_name Types.pp x.v_ty Types.pp got)
        pairs;
      let t = infer env body in
      pop_all env xs;
      t
  | Case (scrut, alts) -> check_case env e scrut alts
  | Join (JNonRec d, body) ->
      check_join_var e d;
      let body_ty = infer (bind_join d env) body in
      check_join_rhs env e d body_ty;
      body_ty
  | Join (JRec ds, body) ->
      List.iter (check_join_var e) ds;
      let env' = List.fold_left (fun env d -> bind_join d env) env ds in
      let body_ty = infer env' body in
      List.iter (fun d -> check_join_rhs env' e d body_ty) ds;
      body_ty
  | Jump (j, phis, es, ty) -> (
      check_ty env ty;
      match Ident.Map.find_opt j.v_name env.delta with
      | None ->
          if Ident.Tbl.mem env.gamma j.v_name then
            fail ~context:e
              "jump to %a, which is a value binding (or a join point whose \
               frame is not in the current evaluation context)"
              Ident.pp j.v_name
          else fail ~context:e "jump to unbound label %a" Ident.pp j.v_name
      | Some (tyvars, arg_tys) ->
          if List.length phis <> List.length tyvars then
            fail ~context:e "jump to %a: %d type arguments, expects %d"
              Ident.pp j.v_name (List.length phis) (List.length tyvars);
          List.iter (check_ty env) phis;
          let inst =
            List.fold_left2
              (fun m a phi -> Ident.Map.add a phi m)
              Ident.Map.empty tyvars phis
          in
          let want_tys = List.map (Types.subst inst) arg_tys in
          if List.length es <> List.length want_tys then
            fail ~context:e "jump to %a: %d arguments, expects %d" Ident.pp
              j.v_name (List.length es) (List.length want_tys);
          List.iter2
            (fun arg want ->
              let got = infer (no_joins env) arg in
              if not (Types.equal got want) then
                fail ~context:e "jump to %a: argument has type %a, wants %a"
                  Ident.pp j.v_name Types.pp got Types.pp want)
            es want_tys;
          ty)

and check_case env e scrut alts =
  let scrut_ty = infer env scrut in
  if alts = [] then fail ~context:e "case with no alternatives";
  let check_alt { alt_pat; alt_rhs } =
    match alt_pat with
    | PDefault -> infer env alt_rhs
    | PLit l ->
        if not (Types.equal (Literal.ty l) scrut_ty) then
          fail ~context:e "literal pattern %a cannot match scrutinee type %a"
            Literal.pp l Types.pp scrut_ty;
        infer env alt_rhs
    | PCon (dc, xs) ->
        let head, phis = Types.split_apps scrut_ty in
        (match head with
        | Types.Con t when String.equal t dc.tycon -> ()
        | _ ->
            fail ~context:e
              "constructor pattern %s cannot match scrutinee type %a" dc.name
              Types.pp scrut_ty);
        let want_tys = Datacon.instantiate_args dc phis in
        if List.length xs <> List.length want_tys then
          fail ~context:e "pattern %s: %d binders, expects %d" dc.name
            (List.length xs) (List.length want_tys);
        List.iter2
          (fun (x : var) want ->
            if not (Types.equal x.v_ty want) then
              fail ~context:e "pattern binder %a : %a, should be %a" Ident.pp
                x.v_name Types.pp x.v_ty Types.pp want)
          xs want_tys;
        push_all env xs;
        let t = infer env alt_rhs in
        pop_all env xs;
        t
  in
  match List.map check_alt alts with
  | [] -> assert false
  | ty :: rest ->
      List.iter
        (fun ty' ->
          if not (Types.equal ty ty') then
            fail ~context:e "case alternatives have different types %a and %a"
              Types.pp ty Types.pp ty')
        rest;
      ty

(* The binder of a join point must carry the type
   [forall tyvars. arg_tys -> forall r. r]. *)
and check_join_var e (d : join_defn) =
  let want =
    Types.join_point_ty d.j_tyvars (List.map (fun p -> p.v_ty) d.j_params)
  in
  if not (Types.equal d.j_var.v_ty want) then
    fail ~context:e "join binder %a has type %a, should be %a" Ident.pp
      d.j_var.v_name Types.pp d.j_var.v_ty Types.pp want

(* Rule JBIND: the right-hand side is checked in the outer [delta]
   (a join rhs is itself a tail context, so it may jump to outer and —
   in the recursive case — sibling join points) and must produce
   exactly the type of the join body. The body type must not mention
   the join point's own type parameters. *)
and check_join_rhs env e (d : join_defn) body_ty =
  let rhs_env = bind_tyvars d.j_tyvars env in
  List.iter (fun (p : var) -> check_ty rhs_env p.v_ty) d.j_params;
  push_all rhs_env d.j_params;
  let got = infer rhs_env d.j_rhs in
  pop_all rhs_env d.j_params;
  if not (Types.equal got body_ty) then
    fail ~context:e "join point %a rhs has type %a but the body has type %a"
      Ident.pp d.j_var.v_name Types.pp got Types.pp body_ty;
  let escaped =
    List.filter
      (fun a -> Ident.Set.mem a (Types.free_vars body_ty))
      d.j_tyvars
  in
  match escaped with
  | [] -> ()
  | a :: _ ->
      fail ~context:e "join point %a: type parameter %a escapes into %a"
        Ident.pp d.j_var.v_name Ident.pp a Types.pp body_ty

(** [lint datacons e] typechecks closed [e]; returns its type or raises
    {!Lint_error}. *)
let lint datacons e = infer (init_env datacons) e

(** [lint_result datacons e] is {!lint} with errors reified. *)
let lint_result datacons e =
  match lint datacons e with
  | ty -> Ok ty
  | exception Lint_error err -> Error err

(** [well_typed datacons e] is true iff [e] lints. *)
let well_typed datacons e =
  match lint_result datacons e with Ok _ -> true | Error _ -> false
