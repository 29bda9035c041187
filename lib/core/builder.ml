(** A higher-order-abstract-syntax builder DSL for System F_J terms.

    Tests, examples and benchmarks construct well-typed terms through
    this module rather than the raw constructors: binders are allocated
    fresh automatically and occurrences are passed to OCaml functions,
    so scoping mistakes are impossible by construction.

    {[
      let open Builder in
      lam "x" Types.int (fun x -> add x (int 1))
    ]} *)

open Syntax

let dc = Datacon.builtins

(* ------------------------------------------------------------------ *)
(* Literals and primops                                                *)
(* ------------------------------------------------------------------ *)

let int n = Lit (Literal.Int n)
let char c = Lit (Literal.Char c)
let str s = Lit (Literal.String s)
let add a b = Prim (Primop.Add, [ a; b ])
let sub a b = Prim (Primop.Sub, [ a; b ])
let mul a b = Prim (Primop.Mul, [ a; b ])
let div_ a b = Prim (Primop.Div, [ a; b ])
let mod_ a b = Prim (Primop.Mod, [ a; b ])
let eq a b = Prim (Primop.Eq, [ a; b ])
let lt a b = Prim (Primop.Lt, [ a; b ])
let le a b = Prim (Primop.Le, [ a; b ])
let gt a b = Prim (Primop.Gt, [ a; b ])
let ge a b = Prim (Primop.Ge, [ a; b ])

(* ------------------------------------------------------------------ *)
(* Binders                                                             *)
(* ------------------------------------------------------------------ *)

(** [lam "x" ty body]: a value abstraction; [body] receives the
    occurrence of the binder. *)
let lam name ty (body : expr -> expr) : expr =
  let x = mk_var name ty in
  Lam (x, body (Var x))

let lam3 n1 t1 n2 t2 n3 t3 body =
  lam n1 t1 (fun x -> lam n2 t2 (fun y -> lam n3 t3 (fun z -> body x y z)))

(** [tlam "a" body]: a type abstraction; [body] receives the type
    variable as a type. *)
let tlam name (body : Types.t -> expr) : expr =
  let a = Ident.fresh name in
  TyLam (a, body (Types.Var a))

(** [let_ "x" rhs body]: non-recursive let; the binder's type is
    computed from [rhs]. *)
let let_ name rhs (body : expr -> expr) : expr =
  let x = mk_var name (ty_of rhs) in
  Let (NonRec (x, rhs), body (Var x))

(** [letrec1 "f" ty rhs body]: single recursive binding; both [rhs] and
    [body] receive the occurrence. *)
let letrec1 name ty (rhs : expr -> expr) (body : expr -> expr) : expr =
  let f = mk_var name ty in
  Let (Rec [ (f, rhs (Var f)) ], body (Var f))

(** [join1 "j" params rhs body]: non-recursive join point with value
    parameters [(name, ty) list]; [rhs] receives the parameter
    occurrences, [body] receives a jump-builder taking the arguments
    and the claimed result type. *)
let join1 name (params : (string * Types.t) list) (rhs : expr list -> expr)
    (body : (expr list -> Types.t -> expr) -> expr) : expr =
  let ps = List.map (fun (n, t) -> mk_var n t) params in
  let jv = mk_join_var name [] ps in
  let defn =
    {
      j_var = jv;
      j_tyvars = [];
      j_params = ps;
      j_rhs = rhs (List.map (fun p -> Var p) ps);
    }
  in
  Join (JNonRec defn, body (fun args ty -> Jump (jv, [], args, ty)))

(** [joinrec1 "j" params rhs body]: recursive join point; [rhs] also
    receives the jump-builder for self-jumps. *)
let joinrec1 name (params : (string * Types.t) list)
    (rhs : (expr list -> Types.t -> expr) -> expr list -> expr)
    (body : (expr list -> Types.t -> expr) -> expr) : expr =
  let ps = List.map (fun (n, t) -> mk_var n t) params in
  let jv = mk_join_var name [] ps in
  let jump args ty = Jump (jv, [], args, ty) in
  let defn =
    {
      j_var = jv;
      j_tyvars = [];
      j_params = ps;
      j_rhs = rhs jump (List.map (fun p -> Var p) ps);
    }
  in
  Join (JRec [ defn ], body jump)

(* ------------------------------------------------------------------ *)
(* Datatypes                                                           *)
(* ------------------------------------------------------------------ *)

(** [con env "Just" phis args]: saturated constructor application. *)
let con ?(env = dc) name phis args : expr =
  match Datacon.find_con env name with
  | Some d -> Con (d, phis, args)
  | None -> invalid_arg ("Builder.con: unknown constructor " ^ name)

let true_ = con "True" [] []
let false_ = con "False" [] []
let nothing phi = con "Nothing" [ phi ] []
let just phi e = con "Just" [ phi ] [ e ]
let nil phi = con "Nil" [ phi ] []
let cons phi hd tl = con "Cons" [ phi ] [ hd; tl ]
let pair t1 t2 a b = con "MkPair" [ t1; t2 ] [ a; b ]
let list_ty phi = Types.apps (Types.Con "List") [ phi ]
let maybe_ty phi = Types.apps (Types.Con "Maybe") [ phi ]
let pair_ty a b = Types.apps (Types.Con "Pair") [ a; b ]

(** Build a literal list. *)
let list_of phi (es : expr list) : expr =
  List.fold_right (fun e acc -> cons phi e acc) es (nil phi)

(** [int_list [1;2;3]]. *)
let int_list ns = list_of Types.int (List.map int ns)

(* ------------------------------------------------------------------ *)
(* Case expressions                                                    *)
(* ------------------------------------------------------------------ *)

(** [alt_con env "Cons" phis ["x";"xs"] rhs]: a constructor alternative;
    binder types are the constructor's field types at [phis]; [rhs]
    receives the binder occurrences. *)
let alt_con ?(env = dc) name phis (binder_names : string list)
    (rhs : expr list -> expr) : alt =
  match Datacon.find_con env name with
  | None -> invalid_arg ("Builder.alt_con: unknown constructor " ^ name)
  | Some d ->
      let tys = Datacon.instantiate_args d phis in
      if List.length tys <> List.length binder_names then
        invalid_arg ("Builder.alt_con: arity mismatch for " ^ name);
      let xs = List.map2 mk_var binder_names tys in
      { alt_pat = PCon (d, xs); alt_rhs = rhs (List.map (fun x -> Var x) xs) }

let alt_lit l rhs = { alt_pat = PLit l; alt_rhs = rhs }
let alt_default rhs = { alt_pat = PDefault; alt_rhs = rhs }

let case scrut alts = Case (scrut, alts)

(** [if_ c t e] — case analysis on [Bool]. *)
let if_ c t e =
  Case
    ( c,
      [
        { alt_pat = PCon (Datacon.builtin "True", []); alt_rhs = t };
        { alt_pat = PCon (Datacon.builtin "False", []); alt_rhs = e };
      ] )

(* ------------------------------------------------------------------ *)
(* Application                                                         *)
(* ------------------------------------------------------------------ *)

let app f a = App (f, a)
let app2 f a b = App (App (f, a), b)
let app3 f a b c = App (App (App (f, a), b), c)
let tyapp f t = TyApp (f, t)
