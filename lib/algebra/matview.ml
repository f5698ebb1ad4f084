open Tdp_core
module Database = Tdp_store.Database
module Oid = Tdp_store.Oid

(* Maintained materialized views.

   [View.materialize] takes a one-shot copy; this module keeps the copy
   population in sync with the base data on demand: [refresh] brings
   the copies (tracked by a source-OID → copy-OID mapping) in line with
   the view's instance set, adding, removing, or updating copies as
   needed — the classic deferred view-maintenance loop, built on the
   identity-based instance semantics of projection views.

   Refresh is driven by the store's change feed.  Whether a row is an
   instance of a Base/Project/Select/Generalize view depends only on
   its type and its own slots ([View.mem]), so maintenance is exact and
   row-local: each view keeps a [Database.watcher], and a refresh
   reconciles just the rows mutated since the last one — a one-row
   update costs one membership test and one pair diff at any extent
   size.  A touched copy is traced back to its source through the
   copy → source map and re-diffed, which repairs direct edits to
   copies.  The full pass (instance list against every tracked pair)
   remains for [create], [~force:true] and schema swaps. *)

module Obs = Tdp_obs
let m_refresh_ns = Obs.Metrics.histogram "matview.refresh_ns"
let c_rows_skipped = Obs.Metrics.counter "matview.rows_skipped"
let c_rows_checked = Obs.Metrics.counter "matview.rows_checked"

type stats = { added : int; removed : int; updated : int }

let no_change = { added = 0; removed = 0; updated = 0 }

type t = {
  view_type : Type_name.t;
  expr : View.expr;
  feed : Database.watcher;
  mutable mapping : Oid.t Oid.Map.t;  (** source → copy *)
  sources : Oid.t Oid.Tbl.t;  (** copy → source *)
  mutable tracked : int;  (** bindings in [mapping] *)
}

let view_type t = t.view_type
let mapping t = t.mapping

(* The tallies of one refresh; [visited] counts tracked pairs diffed or
   dropped, the complement of [matview.rows_skipped]. *)
type pass = {
  mutable p_added : int;
  mutable p_removed : int;
  mutable p_updated : int;
  mutable checked : int;
  mutable visited : int;
}

let track t src copy =
  t.mapping <- Oid.Map.add src copy t.mapping;
  Oid.Tbl.replace t.sources copy src;
  t.tracked <- t.tracked + 1

let untrack t src copy =
  t.mapping <- Oid.Map.remove src t.mapping;
  Oid.Tbl.remove t.sources copy;
  t.tracked <- t.tracked - 1

let add_copy db t attrs p src =
  let init = List.combine attrs (Database.get_attrs db src attrs) in
  track t src (Database.new_object db t.view_type ~init);
  p.p_added <- p.p_added + 1

(* One batch read per side, then diff — not a get_attr pair per
   attribute. *)
let diff_pair db attrs p src copy =
  p.checked <- p.checked + 1;
  p.visited <- p.visited + 1;
  let src_vals = Database.get_attrs db src attrs in
  let copy_vals = Database.get_attrs db copy attrs in
  let changed = ref false in
  let rec diff al sl cl =
    match (al, sl, cl) with
    | [], [], [] -> ()
    | a :: al, s :: sl, c :: cl ->
        if not (Tdp_store.Value.equal s c) then begin
          Database.set_attr db copy a s;
          changed := true
        end;
        diff al sl cl
    | _ ->
        (* get_attrs returns one value per requested attr; a length
           mismatch means the store broke that contract *)
        raise
          (Database.Store_error
             (Fmt.str
                "matview refresh: %d attributes but %d source / %d copy \
                 values for #%d -> #%d"
                (List.length attrs) (List.length src_vals)
                (List.length copy_vals) (Oid.to_int src) (Oid.to_int copy)))
  in
  diff attrs src_vals copy_vals;
  if !changed then p.p_updated <- p.p_updated + 1

(* [src] is a view instance: give it an up-to-date copy.  A copy
   deleted behind the view's back is replaced. *)
let sync db t attrs p src =
  match Oid.Map.find_opt src t.mapping with
  | None -> add_copy db t attrs p src
  | Some copy when Database.mem db copy -> diff_pair db attrs p src copy
  | Some copy ->
      untrack t src copy;
      add_copy db t attrs p src

(* [src] left the view: delete its copy.  The rows the [Nullify]
   delete nulls changed too; they are returned for reconciling. *)
let drop db t p src copy =
  untrack t src copy;
  p.visited <- p.visited + 1;
  if not (Database.mem db copy) then []
  else begin
    let nulled = List.map fst (Database.referrers db copy) in
    Database.delete db ~policy:Database.Nullify copy;
    p.p_removed <- p.p_removed + 1;
    nulled
  end

let reconcile db t attrs p src =
  if View.mem db t.expr src then begin
    sync db t (Lazy.force attrs) p src;
    []
  end
  else
    match Oid.Map.find_opt src t.mapping with
    | Some copy -> drop db t p src copy
    | None -> []

(* Reconcile changed rows, in source-OID order, until no delete
   cascades further: a touched copy stands for its source. *)
let rec settle db t attrs p rows =
  if rows <> [] then begin
    let srcs =
      List.fold_left
        (fun s oid ->
          Oid.Set.add (Option.value ~default:oid (Oid.Tbl.find_opt t.sources oid)) s)
        Oid.Set.empty rows
    in
    Oid.Set.fold (fun src acc -> reconcile db t attrs p src @ acc) srcs []
    |> settle db t attrs p
  end

(* Diff the whole instance set against every tracked pair.  Vanished
   sources go first, so rows their copies' deletes null are re-read by
   the diffs below; the nulled rows come back for [settle].  The
   instances and the mapping are both in source-OID order, so one merge
   walk finds the vanished. *)
let full_pass db t attrs p =
  let current = View.instances db t.expr in
  let rest = ref current in
  let rec skip_below src = function
    | c :: cs when Oid.compare c src < 0 -> skip_below src cs
    | l -> l
  in
  let nulled =
    Oid.Map.fold
      (fun src copy acc ->
        rest := skip_below src !rest;
        match !rest with
        | c :: _ when Oid.equal c src -> acc
        | _ -> drop db t p src copy @ acc)
      t.mapping []
  in
  List.iter (sync db t (Lazy.force attrs) p) current;
  nulled

let refresh ?(force = false) db t =
  Obs.Metrics.time m_refresh_ns (fun () ->
      Database.drain db t.feed (fun delta ->
          let attrs =
            lazy (Hierarchy.all_attribute_names (Database.hierarchy db) t.view_type)
          in
          let tracked = t.tracked in
          let p =
            { p_added = 0; p_removed = 0; p_updated = 0; checked = 0; visited = 0 }
          in
          (match delta with
          | Database.Touched rows when not force ->
              settle db t attrs p (Oid.Set.elements rows)
          | Database.Touched _ | Database.Rebuild ->
              settle db t attrs p (full_pass db t attrs p));
          Obs.Metrics.add c_rows_checked p.checked;
          Obs.Metrics.add c_rows_skipped (max 0 (tracked - p.visited));
          { added = p.p_added; removed = p.p_removed; updated = p.p_updated }))

let create db ~view_type expr =
  let t =
    { view_type;
      expr;
      feed = Database.watch db;
      mapping = Oid.Map.empty;
      sources = Oid.Tbl.create 64;
      tracked = 0
    }
  in
  (try ignore (refresh ~force:true db t)
   with e ->
     Database.unwatch db t.feed;
     raise e);
  t

let close db t = Database.unwatch db t.feed
let copies t = List.map snd (Oid.Map.bindings t.mapping)

let pp_stats ppf s =
  Fmt.pf ppf "+%d -%d ~%d" s.added s.removed s.updated
