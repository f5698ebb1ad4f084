(** An in-memory object store over a schema.

    Objects have an identity (OID), a most-specific type, and one slot
    per attribute of the type's cumulative state.  Extents are deep:
    the extent of [T] contains every object whose type is a subtype of
    [T].  This realizes the paper's companion "type instantiation"
    semantics for projection views: because the derived type [T̂] is
    placed {e above} the source type, every source instance is already
    an instance of the view, with no copying.

    Physically the store is columnar: instances of one type created
    under one compiled layout share a struct-of-arrays {!Columns.t}
    block, extents concatenate per-block sorted OID runs via the
    {!Tdp_core.Schema_index} bitset closure, and a maintained
    reverse-reference index backs {!referrers} and {!delete}.  None of
    that changes the observable API; {!obj} is materialized on demand
    for compatibility. *)

open Tdp_core

type obj = {
  oid : Oid.t;
  ty : Type_name.t;
  mutable slots : Value.t Attr_name.Map.t;
}

type t

exception Store_error of string

type delete_policy =
  | Restrict  (** refuse to delete a referenced object *)
  | Nullify  (** null out every referring slot *)

(** One validated mutation, as reported to a journal (see
    {!set_journal}).  Ops are emitted {e after} validation and
    {e before} the in-memory structures change, so an attached journal
    that persists each op implements write-ahead logging: replaying a
    journal prefix reproduces the database state after that prefix of
    the run ({!Wal}). *)
type op =
  | Op_new of { oid : Oid.t; ty : Type_name.t; init : (Attr_name.t * Value.t) list }
  | Op_set of { oid : Oid.t; attr : Attr_name.t; value : Value.t }
  | Op_delete of { oid : Oid.t; policy : delete_policy }
  | Op_set_schema of { source : string }

val create : Schema.t -> t
val schema : t -> Schema.t

(** Attach (or detach, with [None]) a journal callback.  While
    attached, every mutation — object creation (including
    {!restore_object}), slot writes, deletions, schema swaps — calls it
    with the corresponding {!op} before taking effect. *)
val set_journal : t -> (op -> unit) option -> unit

(** Is a journal currently attached? *)
val journaling : t -> bool

(** Install a refactored schema.  Valid because projection preserves
    the cumulative state of every pre-existing type.  [source] is the
    schema's surface syntax; it is required (and journaled) when a
    journal is attached, so the swap can be replayed on recovery.
    @raise Store_error when journaling and [source] is absent. *)
val set_schema : ?source:string -> t -> Schema.t -> unit

val hierarchy : t -> Hierarchy.t

(** Create an object of [ty]; uninitialized attributes are [Null].
    @raise Store_error on unknown type, unknown attribute, or a value
    that does not conform to the attribute's declared type. *)
val new_object : t -> Type_name.t -> init:(Attr_name.t * Value.t) list -> Oid.t

(** Re-create an object under a fixed OID (used by {!Dump}).
    @raise Store_error if the OID is in use or the init is invalid. *)
val restore_object :
  t -> oid:Oid.t -> ty:Type_name.t -> init:(Attr_name.t * Value.t) list -> Oid.t

(** @raise Store_error on a dangling OID. *)
val find : t -> Oid.t -> obj

val type_of : t -> Oid.t -> Type_name.t

(** Is [oid] a live object? *)
val mem : t -> Oid.t -> bool

(** @raise Store_error if the attribute is not in the object's state. *)
val get_attr : t -> Oid.t -> Attr_name.t -> Value.t

val set_attr : t -> Oid.t -> Attr_name.t -> Value.t -> unit

(** Objects referencing [oid] through an object-typed slot, with the
    referring attribute, in (OID, attribute) order. *)
val referrers : t -> Oid.t -> (Oid.t * Attr_name.t) list

(** Delete an object (default policy [Restrict]).
    @raise Store_error on a dangling OID or a restricted deletion. *)
val delete : t -> ?policy:delete_policy -> Oid.t -> unit

(** Deep extent, in OID order. *)
val extent : t -> Type_name.t -> Oid.t list

(** [in_extent db ty oid]: is [oid] in [extent db ty]?  Decided from
    the row alone — [false] for a dead OID.
    @raise Error.E [Unknown_type] when the row's type has left the
    hierarchy, as {!extent} does. *)
val in_extent : t -> Type_name.t -> Oid.t -> bool

val count : t -> int

(** The next OID the allocator would hand out.  Strictly above every
    OID ever used, including deleted ones — identities are never
    reused, which {!Tdp_txn.Mvcc} preserves across recovery. *)
val next_oid : t -> int

val objects : t -> obj list
val slots : t -> Oid.t -> Value.t Attr_name.Map.t

(** Batch {!get_attr} with a single OID resolution.
    @raise Store_error on a dangling OID or a missing attribute. *)
val get_attrs : t -> Oid.t -> Attr_name.t list -> Value.t list

(** Fold over all objects in OID order without materializing slot maps;
    bindings arrive in attribute-name order (the {!slots} iteration
    order).  Used by {!Dump}. *)
val fold_rows :
  t ->
  init:'a ->
  ('a -> Oid.t -> Type_name.t -> (Attr_name.t * Value.t) list -> 'a) ->
  'a

(** {2 Validation rules}

    The checks every write path makes, with their messages: this
    database's mutators and {!Tdp_txn.Mvcc}'s snapshot writes alike.
    They read the store only through {!rules}.  All raise
    {!Store_error}. *)

type rules = {
  index : Schema_index.t;  (** subtyping, and the hierarchy *)
  layout : Type_name.t -> Attribute.t array;  (** a known type's state *)
  target : Oid.t -> Type_name.t option;  (** the type of a live object *)
}

(** This database's rules: memoized layouts, its OID table. *)
val rules : t -> rules

(** Validate a creation's init list: the type is known, initialized
    values conform (the first occurrence of a name wins), and all
    unknown names are reported at once.  Returns the layout and the
    row, one value per column, [Null] where uninitialized. *)
val check_init :
  rules -> Type_name.t -> (Attr_name.t * Value.t) list -> Attribute.t array * Value.t array

(** May [attr] of an object of type [ty] take [v]?  References must
    name a live object of a subtype. *)
val check_set : rules -> Type_name.t -> Attr_name.t -> Value.t -> unit

(** Raise the error for a slot the object's row does not hold. *)
val no_attribute : Oid.t -> Type_name.t -> Attr_name.t -> 'a

(** May [oid], referenced by [referrers], be deleted under [policy]? *)
val check_delete : Oid.t -> delete_policy -> (Oid.t * Attr_name.t) list -> unit

(** {2 Change feed}

    Between drains, a watcher collects, as a deduplicated OID set,
    every row a mutation touches: objects created or restored, slots
    written, objects deleted, and the referrers whose slots a [Nullify]
    deletion nulls.  {!set_schema} instead marks every attached watcher
    for a full rebuild, since a schema swap can change what any row
    means.  Reads never register.  With no watcher
    attached a mutation pays one empty-list test, so journal replay,
    dump loading and MVCC materialization cost nothing extra.

    Unlike a journal ({!set_journal}), a watcher sees a mutation after
    it took effect, reports [Nullify] cascades, and any number can be
    attached at once.  [Tdp_algebra.Matview] keeps one per view. *)

type watcher

(** What a watcher has seen since it was last drained. *)
type delta =
  | Rebuild
      (** the watcher is new, the schema changed, or the watcher is not
          attached *)
  | Touched of Oid.Set.t  (** exactly the rows mutated *)

(** Attach a fresh watcher.  It has seen none of the rows that exist
    already, so its first delta is [Rebuild]; a watcher marked for a
    rebuild collects no rows until it is drained. *)
val watch : t -> watcher

(** Detach a watcher; it records nothing further.  A no-op when it is
    not attached. *)
val unwatch : t -> watcher -> unit

(** [drain db w f] applies [f] to [w]'s pending delta, then clears the
    delta — including whatever [f]'s own mutations added to it.  If [f]
    raises, nothing is cleared, so a retry sees the delta again (plus
    the rows [f] touched before raising).  A watcher not attached to
    [db] always drains [Rebuild]. *)
val drain : t -> watcher -> (delta -> 'a) -> 'a

(** {2 Bulk-load and columnar access} *)

(** Pre-size the OID table for a bulk load of [n] objects (snapshot
    recovery); a no-op when already that large. *)
val reserve : t -> int -> unit

(** The live columnar blocks making up the deep extent of a type — the
    vectorized scan path in [Tdp_algebra.Pred] compiles predicates
    against these.  Blocks must not be mutated by callers.
    @raise Error.E [Unknown_type] under the same conditions as
    {!extent}. *)
val scan_blocks : t -> Type_name.t -> Columns.t list

(** The database's string intern pool (shared by every block). *)
val string_pool : t -> Columns.Pool.t

type block_stat = {
  st_ty : Type_name.t;
  st_live : int;  (** live rows *)
  st_rows : int;  (** allocated rows (live + free-listed) *)
  st_capacity : int;
  st_free : int;  (** free-listed rows *)
  st_columns : int;
}

(** Per-block storage statistics, ordered by type name (largest block
    first within a type); surfaced by [odb store stats]. *)
val stats : t -> block_stat list
