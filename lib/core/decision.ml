(* The optimization decision ledger. See decision.mli.

   Same collection discipline as Telemetry: a [current] dynamic
   collector installed for the extent of a pipeline run, and a
   [record] that is a cheap no-op otherwise. The ledger is an
   append-only reversed list plus a length, so [snapshot] is O(1) and
   per-pass deltas are cheap even on large runs. *)

type action =
  | Inline
  | Pre_inline
  | Dup_alt
  | Demote
  | Contify
  | Cse
  | Strict_let
  | Strict_arg
  | Spec_constr
  | Float_in
  | Float_out

let action_name = function
  | Inline -> "inline"
  | Pre_inline -> "pre_inline"
  | Dup_alt -> "dup_alt"
  | Demote -> "demote"
  | Contify -> "contify"
  | Cse -> "cse"
  | Strict_let -> "strict_let"
  | Strict_arg -> "strict_arg"
  | Spec_constr -> "spec_constr"
  | Float_in -> "float_in"
  | Float_out -> "float_out"

type reason =
  | Inline_too_big of { size : int; threshold : int }
  | Uninformative_context
  | Occurs_many of { count : int }
  | Escapes_under_lambda
  | Loop_breaker
  | Dup_threshold_shared of { size : int; threshold : int }
  | Not_all_tail_calls
  | Shape_mismatch
  | Rhs_arity_mismatch
  | Nullary_candidate
  | Scope_type_mismatch
  | Already_whnf
  | No_common_constructor
  | No_unique_use_site
  | Mentions_lambda_binder

let reason_name = function
  | Inline_too_big _ -> "inline_too_big"
  | Uninformative_context -> "uninformative_context"
  | Occurs_many _ -> "occurs_many"
  | Escapes_under_lambda -> "escapes_under_lambda"
  | Loop_breaker -> "loop_breaker"
  | Dup_threshold_shared _ -> "dup_threshold_shared"
  | Not_all_tail_calls -> "not_all_tail_calls"
  | Shape_mismatch -> "shape_mismatch"
  | Rhs_arity_mismatch -> "rhs_arity_mismatch"
  | Nullary_candidate -> "nullary_candidate"
  | Scope_type_mismatch -> "scope_type_mismatch"
  | Already_whnf -> "already_whnf"
  | No_common_constructor -> "no_common_constructor"
  | No_unique_use_site -> "no_unique_use_site"
  | Mentions_lambda_binder -> "mentions_lambda_binder"

let pp_reason ppf = function
  | Inline_too_big { size; threshold } ->
      Format.fprintf ppf "size %d > threshold %d" size threshold
  | Uninformative_context ->
      Format.fprintf ppf "use site would not consume the unfolding"
  | Occurs_many { count } ->
      Format.fprintf ppf "occurs %d times (would duplicate code)" count
  | Escapes_under_lambda ->
      Format.fprintf ppf "an occurrence escapes under a lambda"
  | Loop_breaker -> Format.fprintf ppf "recursive binder (loop breaker)"
  | Dup_threshold_shared { size; threshold } ->
      Format.fprintf ppf "alternative size %d > dup threshold %d, shared" size
        threshold
  | Not_all_tail_calls ->
      Format.fprintf ppf "not every occurrence is a saturated tail call"
  | Shape_mismatch ->
      Format.fprintf ppf "tail calls disagree on argument shape"
  | Rhs_arity_mismatch ->
      Format.fprintf ppf "rhs does not bind the called argument prefix"
  | Nullary_candidate ->
      Format.fprintf ppf
        "nullary with several uses (a join point would lose sharing)"
  | Scope_type_mismatch ->
      Format.fprintf ppf "body type differs from the scope's type"
  | Already_whnf -> Format.fprintf ppf "demanded rhs is already a value"
  | No_common_constructor ->
      Format.fprintf ppf "no argument is the same constructor at every jump"
  | No_unique_use_site ->
      Format.fprintf ppf "no unique branch to sink the binding into"
  | Mentions_lambda_binder ->
      Format.fprintf ppf "rhs mentions the enclosing lambda's binder"

type verdict = Fired | Rejected of reason

let verdict_name = function Fired -> "fired" | Rejected _ -> "rejected"

type event = {
  d_pass : string;
  d_action : action;
  d_site : string;
  d_verdict : verdict;
}

type t = { mutable events_rev : event list; mutable n : int }

let create () = { events_rev = []; n = 0 }

(* The innermost installed ledger, if any. Domain-local, like every
   dynamically-scoped collector, so parallel workers never race. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_ledger l f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some l);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let enabled () = Option.is_some (Domain.DLS.get current)

let record ~pass action ~site verdict =
  match Domain.DLS.get current with
  | None -> ()
  | Some l ->
      l.events_rev <-
        { d_pass = pass; d_action = action; d_site = site; d_verdict = verdict }
        :: l.events_rev;
      l.n <- l.n + 1

let events l = List.rev l.events_rev
let length l = l.n

type snapshot = int

let snapshot l = l.n

let events_since s l =
  (* The newest [l.n - s] events, oldest first. *)
  let rec take acc k = function
    | e :: rest when k > 0 -> take (e :: acc) (k - 1) rest
    | _ -> acc
  in
  take [] (l.n - s) l.events_rev

let fired es =
  List.length (List.filter (fun e -> e.d_verdict = Fired) es)

let rejected es = List.length es - fired es

let bump key tbl =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reason_counts es =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.d_verdict with
      | Fired -> ()
      | Rejected r -> bump (reason_name r) tbl)
    es;
  sorted_counts tbl

let summary_key e =
  match e.d_verdict with
  | Fired -> action_name e.d_action ^ ":fired"
  | Rejected r -> action_name e.d_action ^ ":rejected:" ^ reason_name r

let summary es =
  let tbl = Hashtbl.create 16 in
  List.iter (fun e -> bump (summary_key e) tbl) es;
  sorted_counts tbl

(* JSON *)

(* A reason's integers, named, in the order both codecs write them. *)
let reason_payload = function
  | Inline_too_big { size; threshold } | Dup_threshold_shared { size; threshold }
    ->
      [ ("size", size); ("threshold", threshold) ]
  | Occurs_many { count } -> [ ("count", count) ]
  | _ -> []

let event_json e =
  let open Telemetry.Json in
  let base =
    [
      ("pass", Str e.d_pass);
      ("action", Str (action_name e.d_action));
      ("site", Str e.d_site);
      ("verdict", Str (verdict_name e.d_verdict));
    ]
  in
  match e.d_verdict with
  | Fired -> Obj base
  | Rejected r ->
      Obj
        (base
        @ ("reason", Str (reason_name r))
          :: List.map (fun (k, n) -> (k, Int n)) (reason_payload r))

let summary_json es =
  let open Telemetry.Json in
  Obj
    [
      ("fired", Int (fired es));
      ("rejected", Int (rejected es));
      ("counts", Obj (List.map (fun (k, n) -> (k, Int n)) (summary es)));
    ]

(* ------------------------------------------------------------------ *)
(* Parsing (the exact inverse of event_json) — what lets a cached     *)
(* pass replay its ledger entries so warm compiles keep byte-         *)
(* identical decision ledgers.                                        *)
(* ------------------------------------------------------------------ *)

let all_actions =
  [
    Inline; Pre_inline; Dup_alt; Demote; Contify; Cse; Strict_let; Strict_arg;
    Spec_constr; Float_in; Float_out;
  ]

let action_of_name name =
  List.find_opt (fun a -> String.equal (action_name a) name) all_actions

(* What a reason's name says about its integers. *)
type shape =
  | Plain of reason
  | Counted of (int -> reason)  (* count *)
  | Sized of (int -> int -> reason)  (* size, then threshold *)

(* The one name -> reason table, shared by both decoders. *)
let reason_shape = function
  | "inline_too_big" ->
      Some (Sized (fun size threshold -> Inline_too_big { size; threshold }))
  | "uninformative_context" -> Some (Plain Uninformative_context)
  | "occurs_many" -> Some (Counted (fun count -> Occurs_many { count }))
  | "escapes_under_lambda" -> Some (Plain Escapes_under_lambda)
  | "loop_breaker" -> Some (Plain Loop_breaker)
  | "dup_threshold_shared" ->
      Some
        (Sized (fun size threshold -> Dup_threshold_shared { size; threshold }))
  | "not_all_tail_calls" -> Some (Plain Not_all_tail_calls)
  | "shape_mismatch" -> Some (Plain Shape_mismatch)
  | "rhs_arity_mismatch" -> Some (Plain Rhs_arity_mismatch)
  | "nullary_candidate" -> Some (Plain Nullary_candidate)
  | "scope_type_mismatch" -> Some (Plain Scope_type_mismatch)
  | "already_whnf" -> Some (Plain Already_whnf)
  | "no_common_constructor" -> Some (Plain No_common_constructor)
  | "no_unique_use_site" -> Some (Plain No_unique_use_site)
  | "mentions_lambda_binder" -> Some (Plain Mentions_lambda_binder)
  | _ -> None

let reason_of_json fields =
  let int k =
    match List.assoc_opt k fields with
    | Some (Telemetry.Json.Int n) -> Some n
    | _ -> None
  in
  match List.assoc_opt "reason" fields with
  | Some (Telemetry.Json.Str name) -> (
      match reason_shape name with
      | Some (Plain r) -> Some r
      | Some (Counted f) -> Option.map f (int "count")
      | Some (Sized f) -> (
          match (int "size", int "threshold") with
          | Some size, Some threshold -> Some (f size threshold)
          | _ -> None)
      | None -> None)
  | _ -> None

let event_of_json = function
  | Telemetry.Json.Obj fields -> (
      let str k =
        match List.assoc_opt k fields with
        | Some (Telemetry.Json.Str s) -> Some s
        | _ -> None
      in
      match (str "pass", str "action", str "site", str "verdict") with
      | Some d_pass, Some action, Some d_site, Some verdict -> (
          match (action_of_name action, verdict) with
          | Some d_action, "fired" ->
              Some { d_pass; d_action; d_site; d_verdict = Fired }
          | Some d_action, "rejected" ->
              Option.map
                (fun r -> { d_pass; d_action; d_site; d_verdict = Rejected r })
                (reason_of_json fields)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Positional fields: the request cache's ledger records.             *)
(* ------------------------------------------------------------------ *)

let write_fields ~field ~int e =
  field e.d_pass;
  field (action_name e.d_action);
  field e.d_site;
  field (verdict_name e.d_verdict);
  match e.d_verdict with
  | Fired -> ()
  | Rejected r ->
      field (reason_name r);
      List.iter (fun (_, n) -> int n) (reason_payload r)

(* The reads are sequenced by [let]: each call consumes the next field. *)
let read_fields ~field ~int =
  let d_pass = field () in
  let action = field () in
  let d_site = field () in
  let d_verdict =
    match field () with
    | "fired" -> Some Fired
    | "rejected" -> (
        match reason_shape (field ()) with
        | Some (Plain r) -> Some (Rejected r)
        | Some (Counted f) -> Some (Rejected (f (int ())))
        | Some (Sized f) ->
            let size = int () in
            Some (Rejected (f size (int ())))
        | None -> None)
    | _ -> None
  in
  match (action_of_name action, d_verdict) with
  | Some d_action, Some d_verdict -> Some { d_pass; d_action; d_site; d_verdict }
  | _ -> None

(* Append a pre-built event verbatim (the cache-replay path). *)
let record_event e =
  match Domain.DLS.get current with
  | None -> ()
  | Some l ->
      l.events_rev <- e :: l.events_rev;
      l.n <- l.n + 1
