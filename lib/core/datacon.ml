(** Data constructors and datatype environments.

    A datatype declaration

    {v data T a1 ... an = K1 sigma_11 ... | K2 ... v}

    introduces a type constructor [T] of arity [n] and data constructors
    [Ki]. The function [typeof Ki] of Fig. 2 is {!ty}:
    [forall a1 ... an. sigma_i1 -> ... -> T a1 ... an], and [ctors T] is
    {!constructors_of}. *)

type t = {
  name : string;  (** Constructor name [K]. *)
  tycon : string;  (** Parent type constructor [T]. *)
  univ : Ident.t list;  (** Universal type variables of [T]. *)
  arg_tys : Types.t list;  (** Field types, mentioning [univ]. *)
  tag : int;  (** Position within the datatype, from 0. *)
}

type tycon = {
  tc_name : string;
  tc_tyvars : Ident.t list;
  tc_cons : t list;  (** In declaration order; tags are indices. *)
}

(** Maps both type-constructor names and data-constructor names. *)
type env = { tycons : tycon Stringmap.t; cons : t Stringmap.t }

let arity (dc : t) = List.length dc.arg_tys

(** [instantiate_args dc phis]: the field types of [dc] with its
    universal variables instantiated to [phis]. *)
let instantiate_args (dc : t) (phis : Types.t list) =
  if List.length phis <> List.length dc.univ then
    invalid_arg "Datacon.instantiate_args: arity mismatch";
  let env =
    List.fold_left2
      (fun m a phi -> Ident.Map.add a phi m)
      Ident.Map.empty dc.univ phis
  in
  List.map (Types.subst env) dc.arg_tys

(** Constructor identity is by name (names are globally unique within an
    environment). *)
let equal (a : t) (b : t) = String.equal a.name b.name

let pp ppf (dc : t) = Fmt.string ppf dc.name

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

let empty_env = { tycons = Stringmap.empty; cons = Stringmap.empty }

exception Duplicate of string

(** [declare env ~name ~tyvars cons] adds the datatype [name] with the
    given constructors (name, field types). Raises {!Duplicate} if any
    name is already bound. *)
let declare env ~name ~tyvars (cons : (string * Types.t list) list) =
  if Stringmap.mem name env.tycons then raise (Duplicate name);
  let dcs =
    List.mapi
      (fun tag (cname, arg_tys) ->
        { name = cname; tycon = name; univ = tyvars; arg_tys; tag })
      cons
  in
  let tc = { tc_name = name; tc_tyvars = tyvars; tc_cons = dcs } in
  let cons =
    List.fold_left
      (fun m (dc : t) ->
        if Stringmap.mem dc.name m then raise (Duplicate dc.name);
        Stringmap.add dc.name dc m)
      env.cons dcs
  in
  { tycons = Stringmap.add name tc env.tycons; cons }

let find_con env name = Stringmap.find_opt name env.cons
let find_tycon env name = Stringmap.find_opt name env.tycons

(** The environment containing the wired-in datatypes every program may
    assume: [Bool], [Unit], [Pair], [Maybe], [Either], [List],
    [Ordering]. Surface programs may declare more. *)
let builtins =
  let a = Ident.fresh "a" and b = Ident.fresh "b" in
  let va = Types.var a and vb = Types.var b in
  let env = empty_env in
  let env =
    declare env ~name:"Bool" ~tyvars:[] [ ("False", []); ("True", []) ]
  in
  let env = declare env ~name:"Unit" ~tyvars:[] [ ("MkUnit", []) ] in
  let env =
    declare env ~name:"Pair" ~tyvars:[ a; b ] [ ("MkPair", [ va; vb ]) ]
  in
  let env =
    declare env ~name:"Maybe" ~tyvars:[ a ]
      [ ("Nothing", []); ("Just", [ va ]) ]
  in
  let env =
    declare env ~name:"Either" ~tyvars:[ a; b ]
      [ ("Left", [ va ]); ("Right", [ vb ]) ]
  in
  let env =
    declare env ~name:"List" ~tyvars:[ a ]
      [ ("Nil", []); ("Cons", [ va; Types.apps (Types.Con "List") [ va ] ]) ]
  in
  let env =
    declare env ~name:"Ordering" ~tyvars:[]
      [ ("LT", []); ("EQ", []); ("GT", []) ]
  in
  env

(** Look up a builtin constructor; raises if absent (programming error). *)
let builtin name =
  match find_con builtins name with
  | Some dc -> dc
  | None -> invalid_arg ("Datacon.builtin: unknown constructor " ^ name)

let true_con = builtin "True"
let false_con = builtin "False"
let of_bool b = if b then true_con else false_con
