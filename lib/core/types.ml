(** Types of System F_J (Fig. 1 of the paper).

    The type language is that of System F with algebraic datatypes:
    variables, datatype constructors, type application, function arrows
    and universal quantification.

    Join points receive the type [forall a_i. sigma_1 -> ... -> sigma_n
    -> forall r. r]: the trailing [forall r. r] (written ⊥) marks a
    computation that never returns to its caller, so a [jump] may be
    assigned any result type (rule JUMP of Fig. 2). *)

type t =
  | Var of Ident.t  (** Type variable [a]. *)
  | Con of string  (** Datatype head [T] (or a primitive such as [Int]). *)
  | App of t * t  (** Type application [tau phi]. *)
  | Arrow of t * t  (** Function type [sigma -> tau]. *)
  | Forall of Ident.t * t  (** Polymorphic type [forall a. tau]. *)

(* ------------------------------------------------------------------ *)
(* Constructors and views                                              *)
(* ------------------------------------------------------------------ *)

let var a = Var a

(** [apps t args] applies the type [t] to [args] left-associatively. *)
let apps head args = List.fold_left (fun acc a -> App (acc, a)) head args

(** [arrows sigmas tau] builds [sigma_1 -> ... -> sigma_n -> tau]. *)
let arrows sigmas tau = List.fold_right (fun s acc -> Arrow (s, acc)) sigmas tau

(** [foralls as tau] builds [forall a_1 ... a_n. tau]. *)
let foralls vars tau = List.fold_right (fun a acc -> Forall (a, acc)) vars tau

let int = Con "Int"
let char = Con "Char"
let string = Con "String"
let bool = Con "Bool"
let unit = Con "Unit"

(** ⊥ = [forall r. r], the return type of join points. A fresh binder is
    allocated each time; [is_bottom] recognises any alpha-variant. *)
let bottom () =
  let r = Ident.fresh "r" in
  Forall (r, Var r)

let is_bottom = function Forall (r, Var r') -> Ident.equal r r' | _ -> false

(** [split_foralls tau] strips the maximal prefix of quantifiers,
    returning the bound variables in order and the remaining body. *)
let rec split_foralls = function
  | Forall (a, t) ->
      let vars, body = split_foralls t in
      (a :: vars, body)
  | t -> ([], t)

(** [split_arrows tau] strips the maximal prefix of arrows, returning
    the argument types in order and the final result type. *)
let rec split_arrows = function
  | Arrow (s, t) ->
      let args, res = split_arrows t in
      (s :: args, res)
  | t -> ([], t)

(** [split_apps tau] decomposes [((h phi_1) ... phi_n)] into [h] and
    [\[phi_1; ...; phi_n\]]. *)
let split_apps t =
  let rec go acc = function App (f, a) -> go (a :: acc) f | h -> (h, acc) in
  go [] t

(** The type of a join point binding type variables [tyvars] and value
    parameters of types [arg_tys]: [forall tyvars. arg_tys -> ⊥]. *)
let join_point_ty tyvars arg_tys = foralls tyvars (arrows arg_tys (bottom ()))

(* ------------------------------------------------------------------ *)
(* Free variables                                                      *)
(* ------------------------------------------------------------------ *)

let rec free_vars = function
  | Var a -> Ident.Set.singleton a
  | Con _ -> Ident.Set.empty
  | App (f, a) -> Ident.Set.union (free_vars f) (free_vars a)
  | Arrow (s, t) -> Ident.Set.union (free_vars s) (free_vars t)
  | Forall (a, t) -> Ident.Set.remove a (free_vars t)

let occurs a t = Ident.Set.mem a (free_vars t)

(* ------------------------------------------------------------------ *)
(* Substitution                                                        *)
(* ------------------------------------------------------------------ *)

(** [subst env tau] applies the simultaneous substitution [env] (mapping
    type variables to types) to [tau], refreshing quantified binders to
    avoid capture. *)
let rec subst (env : t Ident.Map.t) ty =
  if Ident.Map.is_empty env then ty
  else
    match ty with
    | Var a -> ( match Ident.Map.find_opt a env with Some t -> t | None -> ty)
    | Con _ -> ty
    | App (f, a) -> App (subst env f, subst env a)
    | Arrow (s, t) -> Arrow (subst env s, subst env t)
    | Forall (a, t) ->
        (* Refresh the binder unconditionally: cheap, and immune to
           capture by anything in the range of [env]. *)
        let a' = Ident.refresh a in
        Forall (a', subst (Ident.Map.add a (Var a') env) t)

(** [subst1 a phi tau] = [tau{phi/a}]. *)
let subst1 a phi ty = subst (Ident.Map.singleton a phi) ty

(** [instantiate tau phis] peels one quantifier per element of [phis],
    substituting as it goes. Raises [Invalid_argument] if [tau] has too
    few quantifiers. *)
let instantiate ty phis =
  List.fold_left
    (fun ty phi ->
      match ty with
      | Forall (a, body) -> subst1 a phi body
      | _ -> invalid_arg "Types.instantiate: not a forall")
    ty phis

(* ------------------------------------------------------------------ *)
(* Alpha-equivalence                                                   *)
(* ------------------------------------------------------------------ *)

(** [equal t1 t2]: alpha-equivalence of types. A type is equal to
    itself, so a physically equal pair answers at once. *)
let equal t1 t2 =
  t1 == t2
  ||
  let rec go env1 env2 t1 t2 =
    match (t1, t2) with
    | Var a, Var b -> (
        match (Ident.Map.find_opt a env1, Ident.Map.find_opt b env2) with
        | Some i, Some j -> Int.equal i j
        | None, None -> Ident.equal a b
        | _ -> false)
    | Con c, Con d -> String.equal c d
    | App (f1, a1), App (f2, a2) -> go env1 env2 f1 f2 && go env1 env2 a1 a2
    | Arrow (s1, t1), Arrow (s2, t2) -> go env1 env2 s1 s2 && go env1 env2 t1 t2
    | Forall (a, b1), Forall (b, b2) ->
        let lvl = Ident.Map.cardinal env1 in
        go (Ident.Map.add a lvl env1) (Ident.Map.add b lvl env2) b1 b2
    | _ -> false
  in
  go Ident.Map.empty Ident.Map.empty t1 t2

(** Syntactic total order: variables, bound ones included, compare by
    {!Ident} key, so unlike {!equal} it is not up to alpha. Two types
    are equal under it exactly when they print the same. *)
let rec compare t1 t2 =
  if t1 == t2 then 0
  else
    match (t1, t2) with
    | Var a, Var b -> Ident.compare a b
    | Con c, Con d -> String.compare c d
    | App (f1, a1), App (f2, a2) | Arrow (f1, a1), Arrow (f2, a2) ->
        let c = compare f1 f2 in
        if c <> 0 then c else compare a1 a2
    | Forall (a, t1), Forall (b, t2) ->
        let c = Ident.compare a b in
        if c <> 0 then c else compare t1 t2
    | _ ->
        let tag = function
          | Var _ -> 0
          | Con _ -> 1
          | App _ -> 2
          | Arrow _ -> 3
          | Forall _ -> 4
        in
        Int.compare (tag t1) (tag t2)

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

(** Precedence-aware printer: [forall] binds loosest, then arrows
    (right-associative), then application. *)
let pp ppf ty =
  let rec go prec ppf ty =
    match ty with
    | Var a -> Ident.pp ppf a
    | Con c -> Fmt.string ppf c
    | App (f, a) ->
        let doc ppf () = Fmt.pf ppf "%a %a" (go 10) f (go 11) a in
        if prec > 10 then Fmt.parens doc ppf () else doc ppf ()
    | Arrow (s, t) ->
        let doc ppf () = Fmt.pf ppf "%a -> %a" (go 6) s (go 5) t in
        if prec > 5 then Fmt.parens doc ppf () else doc ppf ()
    | Forall _ ->
        let vars, body = split_foralls ty in
        let doc ppf () =
          Fmt.pf ppf "forall %a. %a"
            Fmt.(list ~sep:sp Ident.pp)
            vars (go 0) body
        in
        if prec > 0 then Fmt.parens doc ppf () else doc ppf ()
  in
  go 0 ppf ty

let to_string ty = Fmt.str "%a" pp ty
