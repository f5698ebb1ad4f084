(** An interpreter for generic-function calls over stored objects.

    Executes method bodies with full multi-method dispatch on the
    dynamic types of all arguments.  Used by the test suite to verify
    the paper's behavior-preservation claim {e dynamically}: the same
    call on the same objects returns the same value before and after a
    projection refactors the schema. *)

open Tdp_core

type t

(** What the interpreter reads and writes a store through.  Method
    bodies touch stored objects only via these four functions, so one
    interpreter serves a mutable {!Database} ({!create}) and any other
    backend, such as an immutable MVCC snapshot threaded through a
    reference ({!of_store}).  Failures should raise
    [Database.Store_error], as {!Database}'s own functions do. *)
type store = {
  schema : unit -> Schema.t;
  type_of : Oid.t -> Type_name.t;
  get_attr : Oid.t -> Attr_name.t -> Value.t;
  set_attr : Oid.t -> Attr_name.t -> Value.t -> unit;
}

exception Runtime_error of string

(** [of_store ?now ?max_depth store] makes an interpreter; [now] (default
    2026) anchors the [years_since] builtin, [max_depth] (default
    10000) bounds the call-frame stack so runaway recursion raises
    [Runtime_error] instead of crashing. *)
val of_store : ?now:int -> ?max_depth:int -> store -> t

(** [create ?now ?max_depth db] is {!of_store} over [db]'s own
    [schema], [type_of], [get_attr] and [set_attr]. *)
val create : ?now:int -> ?max_depth:int -> Database.t -> t

(** Rebuild dispatch tables after a schema swap on the store.  Kept for
    explicit control; since generation-stamped invalidation, {!call}
    also detects a swapped schema on its own and rebuilds, so a stale
    interpreter can no longer answer from evolved-away dispatch
    tables. *)
val refresh : t -> t

(** [call t gf args] dispatches and runs a generic function.  A writer
    generic function takes the target object followed by the new value.
    Checks the schema's generation stamp first and transparently
    rebuilds the dispatcher if the store's schema has been swapped
    since (e.g. by [Database.set_schema]).
    @raise Runtime_error on dispatch failure or an ill-typed call. *)
val call : t -> string -> Value.t list -> Value.t

(** [call_on t gf oids] is [call] with object references. *)
val call_on : t -> string -> Oid.t list -> Value.t
