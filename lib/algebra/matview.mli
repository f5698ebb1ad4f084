(** Maintained materialized views.

    Keeps a population of copy objects (of the view's derived type) in
    sync with the view's instance set.  Maintenance is deferred: call
    {!refresh} after base updates; it adds, removes, and updates copies
    as needed.  Copy identity is stable across refreshes, so downstream
    references to copies survive updates to their sources.

    Each view watches its store's change feed
    ({!Tdp_store.Database.watch}) from {!create} until {!close}. *)

open Tdp_core
module Oid = Tdp_store.Oid

type stats = { added : int; removed : int; updated : int }

val no_change : stats

type t

(** Materialize the view now; the initial population counts as adds. *)
val create : Tdp_store.Database.t -> view_type:Type_name.t -> View.expr -> t

val view_type : t -> Type_name.t

(** Source OID → copy OID. *)
val mapping : t -> Oid.t Oid.Map.t

(** Synchronize the copies with the view's current instances.

    Delta-driven: only the rows mutated since the last refresh are
    visited.  Each is re-tested for membership ({!View.mem}) — a new
    member gains a copy, a member's copy is re-diffed against it, a
    vanished or departed source loses its copy — and a touched copy is
    re-diffed from its source, repairing direct edits (a copy deleted
    directly is replaced).  Cost is proportional to the delta, not the
    extent; with nothing changed it is O(1).

    The full pass — the whole instance set against every tracked pair —
    runs instead on {!create}, after a schema swap
    ({!Tdp_store.Database.set_schema}), after {!close}, and with
    [~force:true]; the result is always identical, [force] only
    removes the shortcut (benchmarks use it as the baseline).  The
    pending delta is cleared only when a refresh returns, so one that
    raises can simply be retried.
    @raise Error.E on a [Join] view, as {!View.instances}. *)
val refresh : ?force:bool -> Tdp_store.Database.t -> t -> stats

(** Stop watching the store.  The copies stay; a later {!refresh}
    falls back to the full pass. *)
val close : Tdp_store.Database.t -> t -> unit

(** Copy OIDs, in source-OID order. *)
val copies : t -> Oid.t list

val pp_stats : stats Fmt.t
