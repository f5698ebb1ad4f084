(** Object identifiers.

    Every stored object has an identity independent of its state, as in
    any OODB; projection views share the identities of their source
    instances. *)

type t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
val to_int : t -> int
val of_int : int -> t

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

(** Hash tables keyed by OID, hashing the integer directly. *)
module Tbl : Hashtbl.S with type key = t
