(** Globally-unique identifiers (GHC-style uniques). Identity is the
    integer key; the name is a printing hint. *)

type t = { name : string; id : int }

(** Allocate a brand-new identifier with the given name hint. *)
val fresh : string -> t

(** New identifier with the same name hint but a distinct key. *)
val refresh : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val name : t -> string
val id : t -> int

(** The allocation-site (provenance) label: the name hint, which
    {!refresh} — and so the whole optimiser — preserves. *)
val site : t -> string

(** Prints as [name_id]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t

(** {1 The unique supply}

    The supply is {e domain-local}: each domain (each compile-service
    worker) owns its own counter, and a compilation that must be
    reproducible installs an explicit supply for its extent. *)

(** An explicit unique supply, installable per compilation. *)
type supply

(** A fresh supply whose next key is 1. *)
val new_supply : unit -> supply

(** A throwaway supply that starts at the current supply's counter:
    keys drawn from it cannot collide with any key allocated so far,
    and drawing them leaves the current supply untouched. *)
val copy_supply : unit -> supply

(** [with_supply s f] makes [s] the current domain's supply for the
    dynamic extent of [f] (nesting saves and restores). Two runs of
    the same deterministic compilation under fresh supplies allocate
    identical keys — the per-compilation context the compile service
    threads through every request. *)
val with_supply : supply -> (unit -> 'a) -> 'a

(** The last key the current supply allocated (0 initially). *)
val counter_value : unit -> int

(** Set the current supply to exactly [n] (as if [n] were the last
    allocated key) — the pass cache's replay hook. Never rewind while
    terms built under higher keys are alive. *)
val restore_counter : int -> unit

(** Reset the current supply — tests only. *)
val unsafe_reset_counter : unit -> unit

(** Ensure future {!fresh} keys exceed [n] (used by deserialisers). *)
val ensure_above : int -> unit
