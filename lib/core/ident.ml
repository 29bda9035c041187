(** Globally-unique identifiers.

    Every binder in the System F_J intermediate representation carries an
    identifier with a globally unique integer key (a [Unique] in GHC
    parlance). Identity is decided solely by the key; the textual name is
    kept only for printing and debugging. Substitution avoids capture by
    refreshing binders, i.e. by allocating a new key while keeping the
    human-readable name. *)

type t = {
  name : string;  (** Human-readable hint, not significant for identity. *)
  id : int;  (** Globally unique key; the sole basis of identity. *)
}

(** The unique supply. Domain-local rather than process-global: every
    domain — in particular every compile-service worker — draws from
    its own counter, so parallel compilations never race on it. A
    compilation that must be reproducible installs an explicit
    {!supply} for its extent ({!with_supply}); identical source then
    allocates identical uniques whichever worker runs it, which is
    what makes [--jobs 8] output byte-identical to [--jobs 1]. *)
type supply = int ref

let supply_key : supply Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let counter () = Domain.DLS.get supply_key
let new_supply () : supply = ref 0
let copy_supply () : supply = ref !(counter ())

let with_supply (s : supply) f =
  let saved = Domain.DLS.get supply_key in
  Domain.DLS.set supply_key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set supply_key saved) f

(** The last unique the installed supply allocated (0 initially). *)
let counter_value () = !(counter ())

(** Set the installed supply to exactly [n], as if [n] were the last
    allocated key. The pass cache uses this to replay a cached pass's
    supply consumption so cold and warm compiles stay byte-identical;
    like {!unsafe_reset_counter}, never rewind while terms built under
    higher keys are still alive. *)
let restore_counter n = counter () := n

(** [fresh name] allocates a brand-new identifier with hint [name]. *)
let fresh name =
  let c = counter () in
  incr c;
  { name; id = !c }

(** [refresh x] allocates a new identifier with the same name hint as [x]
    but a distinct key. Used when cloning binders during substitution. *)
let refresh t = fresh t.name

(** [equal a b] holds iff the two identifiers have the same unique key. *)
let equal a b = Int.equal a.id b.id

(** Total order on the unique key (names are ignored). *)
let compare a b = Int.compare a.id b.id

let hash t = t.id
let name t = t.name
let id t = t.id

(** [site x] is the allocation-site (provenance) label of [x]: the
    name hint alone. Unlike the unique key, the hint survives
    {!refresh} — and therefore substitution, inlining and
    contification — so a profile keyed on it maps optimised-code
    allocations back to the source binding. Distinct binders sharing a
    hint share a site, exactly as same-named GHC cost centres do. *)
let site t = t.name

(** Pretty-print as [name_id]; stable and unambiguous within a run. *)
let pp ppf t = Fmt.pf ppf "%s_%d" t.name t.id

let to_string t = Fmt.str "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(** Reset the installed supply. Only for deterministic test output;
    never call while terms built under the old supply are still
    alive. *)
let unsafe_reset_counter () = counter () := 0

(** Ensure future {!fresh} keys exceed [n]. Called by deserialisers so
    loaded uniques can never collide with newly allocated ones. *)
let ensure_above n =
  let c = counter () in
  if !c <= n then c := n + 1
