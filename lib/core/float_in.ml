(** The Float In pass: move let bindings inwards, towards their use
    sites (Sec. 7; [float] of Fig. 4 read right-to-left).

    Floating a binding into a case branch means it is only allocated
    when that branch is taken; floating it into a case {e scrutinee}
    turns calls that were blocked by an intervening context into tail
    calls, which is the first step of the staged Moby derivation of
    Sec. 4:

    {v let f x = rhs in case f y of alts
       ==> case (let f x = rhs in f y) of alts   (this pass)
       ==> case (join f x = rhs in jump f y) of alts  (Contify)
       ==> join f x = case rhs of alts in ...        (Simplify, jfloat) v}

    A binding is never pushed under a lambda, into a join-point or
    letrec right-hand side (work duplication), and — per the paper's
    GHC modifications — Float In {e never un-saturates a join point}
    (join bindings and jumps are left exactly where they are). *)

open Syntax

let moved () = Telemetry.tick Telemetry.Float_in_moved

(* Number of sink targets in [body] that mention [x]: used to require a
   unique home. [occurs] is called directly, not through a local
   closure: [sink] recurses once per enclosing [let], and a closure per
   level made a chain of lets allocate quadratically. *)
let rec sink (x : var) rhs body : expr option =
  match body with
  | Case (scrut, alts) ->
      let in_scrut = occurs x.v_name scrut in
      let live_alts = List.filter (fun a -> occurs x.v_name a.alt_rhs) alts in
      if in_scrut && live_alts = [] then (
        moved ();
        Some (Case (push x rhs scrut, alts)))
      else if (not in_scrut) && List.length live_alts = 1 then (
        moved ();
        Some
          (Case
             ( scrut,
               List.map
                 (fun a ->
                   if occurs x.v_name a.alt_rhs then
                     { a with alt_rhs = push x rhs a.alt_rhs }
                   else a)
                 alts )))
      else None
  | Let (Strict _, _) -> None
  | Let (NonRec (y, yrhs), body') -> (
      (* No need to ask whether [x] occurs in [body']: if it does not,
         the sink below finds no home for it either. *)
      if occurs x.v_name yrhs then None
      else
        match sink x rhs body' with
        | Some b -> Some (Let (NonRec (y, yrhs), b))
        | None -> None)
  | Join (jb, body') ->
      (* Never disturb join right-hand sides; sink into the body only. *)
      let rhss_free =
        List.exists (fun d -> occurs x.v_name d.j_rhs) (join_defns jb)
      in
      if rhss_free then None
      else (
        match sink x rhs body' with
        | Some b -> Some (Join (jb, b))
        | None -> None)
  | App (f, a) ->
      (* Never separate a bound variable from its arguments: pushing
         [let x = ...] into the head of a call [x a1 .. an] would
         un-saturate it (the same pitfall the paper fixed in GHC's
         Float In for join points, Sec. 7) and block contification. *)
      let head_is_x =
        match fst (collect_args body) with
        | Var v -> Ident.equal v.v_name x.v_name
        | _ -> false
      in
      if head_is_x then None
      else if occurs x.v_name f && not (occurs x.v_name a) then (
        moved ();
        Some (App (push x rhs f, a)))
      else if occurs x.v_name a && not (occurs x.v_name f) then (
        moved ();
        Some (App (f, push x rhs a)))
      else None
  | TyApp (f, t) ->
      if occurs x.v_name f then (
        moved ();
        Some (TyApp (push x rhs f, t)))
      else None
  | _ -> None

and push x rhs e = Let (NonRec (x, rhs), e)

(** One bottom-up Float In pass. A node none of whose children changed
    is returned itself. *)
let rec float_in (e : expr) : expr =
  match e with
  | Let (NonRec (x, rhs), body) -> (
      let rhs' = float_in rhs in
      let body' = float_in body in
      match sink x rhs' body' with
      | Some e' ->
          Decision.record ~pass:"float-in" Decision.Float_in
            ~site:(Ident.site x.v_name) Decision.Fired;
          float_in e'
      | None ->
          (* Only a refusal worth explaining if the binding is live:
             there is a use, but no unique home to sink it into. *)
          if Decision.enabled () && occurs x.v_name body' then
            Decision.record ~pass:"float-in" Decision.Float_in
              ~site:(Ident.site x.v_name)
              (Decision.Rejected Decision.No_unique_use_site);
          if rhs' == rhs && body' == body then e
          else Let (NonRec (x, rhs'), body'))
  | _ -> map_subterms float_in e

(** Entry point: the floated term. *)
let run (e : expr) : expr = Fault.point "float-in/result" (float_in e)
