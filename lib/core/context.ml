(** Per-compilation context — see the interface for the design. *)

let with_fresh f = Ident.with_supply (Ident.new_supply ()) f
