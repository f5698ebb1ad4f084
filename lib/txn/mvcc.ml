open Tdp_core
module Oid = Tdp_store.Oid
module Value = Tdp_store.Value
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Wal = Tdp_store.Wal
module Obs = Tdp_obs

(* Snapshot-isolation MVCC over immutable database versions.

   A [snapshot] is a persistent value: an [Oid.Map] of immutable
   object records plus the schema and its compiled index.  Committing
   never mutates a snapshot — it builds a new one sharing almost all
   structure with its parent (O(ops · log n)), then publishes it as the
   branch head under the store lock.  Readers therefore need no locks
   at all once they hold a snapshot: they see exactly the version they
   started from, which is the whole of snapshot isolation.

   Writes go through transactions.  A transaction pins its branch head
   as [base], stages validated ops against a private overlay snapshot,
   and at commit — under the store lock — runs first-writer-wins
   conflict detection: if any version committed to the branch since
   [base] wrote an object this transaction also wrote (or either side
   swapped the schema), the transaction aborts.  Surviving transactions
   are re-applied to the branch *tip* (catching read-write races that
   write-set intersection cannot see, e.g. a new reference to an object
   a later commit deleted) and written as one begin..commit bracket to
   the transaction log; a crash mid-bracket leaves a begin without its
   commit and replay discards it — no torn state.

   Head and tip (as in HyPer's MVCC, which also separates the version
   a committer validates against from the one readers are shown): the
   tip is the newest version whose bracket is in the log, the head the
   newest one an fsync has covered.  Committers validate against the
   tip, so a second committer cannot slip a conflicting write past one
   that is still waiting for its fsync; readers ([head], [begin_],
   served reads) see only the head, so a version is durable before it
   is visible.  The fsync runs after the store lock is released
   ([Wal.sync_upto]), so committers that wrote meanwhile share it and
   readers never queue behind it; each committer then publishes under
   the lock.  A failed group fsync aborts every commit it would have
   covered: the tip falls back to the head and their write sets leave
   the history.  Without fsync ([sync = false]) head and tip move
   together.

   Domain-safety inventory (OCaml 5: reader domains run lock-free over
   snapshots): [Oid.Map]/[Attr_name.Map] are immutable; the schema
   index is built with [Schema_index.compile] (no shared intern table)
   and reader paths use only [Schema_index.subtype] and the pure
   [Hierarchy] attribute walks — never the lazily-memoized
   [ancestor_set]/[cpl] entry points.  [Obs.Metrics] is not
   thread-safe, so every metric below is recorded while holding the
   store lock; the log's [wal.fsync_ns] and [wal.append_ns] are
   recorded under its sync lock instead, since the fsync runs outside
   the store lock. *)

let fail fmt = Fmt.kstr (fun s -> raise (Database.Store_error s)) fmt
let main_branch = "main"

let m_begin = Obs.Metrics.counter "txn.begin"
let m_commit = Obs.Metrics.counter "txn.commit"
let m_abort = Obs.Metrics.counter "txn.abort"
let m_conflict = Obs.Metrics.counter "txn.conflict"
let m_commit_ns = Obs.Metrics.histogram "txn.commit_ns"

(* ---- snapshots ----------------------------------------------------- *)

type stored = { st_ty : Type_name.t; st_slots : Value.t Attr_name.Map.t }

type snapshot = {
  objs : stored Oid.Map.t;
  schema : Schema.t;
  index : Schema_index.t;
  next_oid : int;
  version : int;
}

let empty_snapshot schema =
  { objs = Oid.Map.empty;
    schema;
    index = Schema_index.compile (Schema.hierarchy schema);
    next_oid = 1;
    version = 0
  }

let version s = s.version
let schema s = s.schema
let next_oid s = s.next_oid
let count s = Oid.Map.cardinal s.objs
let mem s oid = Oid.Map.mem oid s.objs
let hierarchy s = Schema.hierarchy s.schema

let find s oid =
  match Oid.Map.find_opt oid s.objs with
  | Some st -> st
  | None -> fail "no object %a" Oid.pp oid

let type_of s oid = (find s oid).st_ty
let slots s oid = (find s oid).st_slots

let get_attr s oid attr =
  let st = find s oid in
  match Attr_name.Map.find_opt attr st.st_slots with
  | Some v -> v
  | None -> Database.no_attribute oid st.st_ty attr

(* Deep extent in OID order ([Oid.Map.fold] visits keys in order). *)
let extent s ty =
  Oid.Map.fold
    (fun oid st acc -> if Schema_index.subtype s.index st.st_ty ty then oid :: acc else acc)
    s.objs []
  |> List.rev

let objects s =
  Oid.Map.fold (fun oid st acc -> (oid, st.st_ty, st.st_slots) :: acc) s.objs []
  |> List.rev

(* ---- op application ------------------------------------------------ *)

(* {!Database}'s rules, read through the snapshot: reference targets
   come from the object map, a type's attributes from the pure
   [Hierarchy.all_attributes] walk — never the memoized
   [Schema_index.layout], which stagers on other domains must not
   touch. *)
let rules s =
  { Database.index = s.index;
    layout = (fun ty -> Array.of_list (Hierarchy.all_attributes (hierarchy s) ty));
    target = (fun o -> Option.map (fun st -> st.st_ty) (Oid.Map.find_opt o s.objs))
  }

let referrers s oid =
  Oid.Map.fold
    (fun other st acc ->
      if Oid.equal other oid then acc
      else
        Attr_name.Map.fold
          (fun attr v acc ->
            match v with
            | Value.Ref r when Oid.equal r oid -> (other, attr) :: acc
            | _ -> acc)
          st.st_slots acc)
    s.objs []
  |> List.sort (fun (a, x) (b, y) ->
         match Oid.compare a b with 0 -> Attr_name.compare x y | c -> c)

(* Apply one validated op, returning the successor snapshot (same
   [version]; commit stamps the new version on publication).
   @raise Database.Store_error when the op does not validate. *)
let apply ?load_schema s (op : Database.op) =
  match op with
  | Database.Op_new { oid; ty; init } ->
      if Oid.Map.mem oid s.objs then fail "oid %a already in use" Oid.pp oid;
      if Oid.to_int oid < 1 then fail "non-positive oid %a" Oid.pp oid;
      let layout, row = Database.check_init (rules s) ty init in
      let st_slots =
        Attr_name.Map.of_seq
          (Seq.zip (Seq.map Attribute.name (Array.to_seq layout)) (Array.to_seq row))
      in
      { s with
        objs = Oid.Map.add oid { st_ty = ty; st_slots } s.objs;
        next_oid = max s.next_oid (Oid.to_int oid + 1)
      }
  | Database.Op_set { oid; attr; value } ->
      let st = find s oid in
      if not (Attr_name.Map.mem attr st.st_slots) then
        Database.no_attribute oid st.st_ty attr;
      Database.check_set (rules s) st.st_ty attr value;
      { s with
        objs =
          Oid.Map.add oid
            { st with st_slots = Attr_name.Map.add attr value st.st_slots }
            s.objs
      }
  | Database.Op_delete { oid; policy } ->
      let _ = find s oid in
      let refs = referrers s oid in
      Database.check_delete oid policy refs;
      let objs =
        match policy with
        | Database.Restrict -> s.objs
        | Database.Nullify ->
            List.fold_left
              (fun objs (other, attr) ->
                let st = Oid.Map.find other objs in
                Oid.Map.add other
                  { st with st_slots = Attr_name.Map.add attr Value.Null st.st_slots }
                  objs)
              s.objs refs
      in
      { s with objs = Oid.Map.remove oid objs }
  | Database.Op_set_schema { source } -> (
      match load_schema with
      | None -> fail "schema op requires a schema loader"
      | Some load ->
          let schema = load source in
          { s with schema; index = Schema_index.compile (Schema.hierarchy schema) })

(* ---- write sets ---------------------------------------------------- *)

type writes = { w_oids : Oid.Set.t; w_schema : bool }

let no_writes = { w_oids = Oid.Set.empty; w_schema = false }

let writes_add w (op : Database.op) =
  match op with
  | Database.Op_new { oid; _ } | Database.Op_set { oid; _ } | Database.Op_delete { oid; _ }
    ->
      { w with w_oids = Oid.Set.add oid w.w_oids }
  | Database.Op_set_schema _ -> { w with w_schema = true }

(* A schema swap conflicts with every concurrent commit: it can change
   the meaning of any staged op. *)
let writes_conflict a b =
  a.w_schema || b.w_schema || not (Oid.Set.disjoint a.w_oids b.w_oids)

(* ---- the store ----------------------------------------------------- *)

(* How many committed write sets a branch retains for first-writer-wins
   checks.  A transaction whose base predates the retained window
   aborts conservatively. *)
let recent_limit = 1024

type branch = {
  mutable head : snapshot;  (* durable: what readers are shown *)
  mutable tip : snapshot;  (* logged: what committers validate against *)
  mutable recent : (int * writes) list;  (* newest first, tip included *)
  mutable floor : int;  (* write sets of versions <= floor were discarded *)
}

(* A commit whose bracket ends at [p_ends] in [p_log], waiting for an
   fsync to cover it before [p_snap] may become its branch's head. *)
type pending = { p_branch : branch; p_snap : snapshot; p_log : Wal.writer; p_ends : int }

type t = {
  lock : Mutex.t;
  mutable version : int;  (* last version handed out, across all branches *)
  mutable next_txid : int;
  branches : (string, branch) Hashtbl.t;
  mutable writer : Wal.writer option;
  mutable unsynced : pending list;  (* newest first *)
  load_schema : (string -> Schema.t) option;
  mutable dir : string option;
  mutable wal_seq : int;  (* last wal.log record folded into the base state *)
  sync : bool;
  mutable closed : bool;
}

let locked t f = Mutex.protect t.lock f

let check_live t =
  if t.closed then fail "store is closed"

let find_branch t name =
  match Hashtbl.find_opt t.branches name with
  | Some br -> br
  | None -> fail "unknown branch %s" name

let make ?load_schema ?(sync = true) base =
  let branches = Hashtbl.create 8 in
  Hashtbl.replace branches main_branch
    { head = base; tip = base; recent = []; floor = base.version };
  { lock = Mutex.create ();
    version = base.version;
    next_txid = 1;
    branches;
    writer = None;
    unsynced = [];
    load_schema;
    dir = None;
    wal_seq = 0;
    sync;
    closed = false
  }

let create ?load_schema schema = make ?load_schema (empty_snapshot schema)

let snapshot_of_database db ~version =
  let objs =
    List.fold_left
      (fun objs (o : Database.obj) ->
        Oid.Map.add o.oid { st_ty = o.ty; st_slots = o.slots } objs)
      Oid.Map.empty (Database.objects db)
  in
  let sch = Database.schema db in
  { objs;
    schema = sch;
    index = Schema_index.compile (Schema.hierarchy sch);
    next_oid = Database.next_oid db;
    version
  }

(* A memory-only store seeded from a recovered database — how a
   replica bootstraps from the primary's snapshot. *)
let of_database ?load_schema db =
  make ?load_schema (snapshot_of_database db ~version:0)

(* Materialize a snapshot as a mutable {!Database} — the bridge to
   {!Dump} for checkpoints and textual dumps.  Two passes so forward
   references restore. *)
let to_database s =
  let db = Database.create s.schema in
  let refs = ref [] in
  Oid.Map.iter
    (fun oid st ->
      let init =
        Attr_name.Map.fold
          (fun a v acc ->
            match v with
            | Value.Ref _ ->
                refs := (oid, a, v) :: !refs;
                acc
            | v -> (a, v) :: acc)
          st.st_slots []
      in
      ignore (Database.restore_object db ~oid ~ty:st.st_ty ~init))
    s.objs;
  List.iter (fun (oid, a, v) -> Database.set_attr db oid a v) (List.rev !refs);
  db

let dump s = Dump.to_string (to_database s)

(* ---- store reads --------------------------------------------------- *)

let head t ~branch =
  locked t (fun () ->
      check_live t;
      (find_branch t branch).head)

let branches t =
  locked t (fun () ->
      Hashtbl.fold (fun name br acc -> (name, br.head.version) :: acc) t.branches []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let current_version t = locked t (fun () -> t.version)

(* ---- transactions -------------------------------------------------- *)

type txn_state = Open | Committed of int | Aborted of string

type txn = {
  store : t;
  txid : int;
  txn_branch : string;
  base : snapshot;
  mutable overlay : snapshot;
  mutable ops : Database.op list;  (* reversed *)
  mutable writes : writes;
  mutable state : txn_state;
}

type commit_error = Conflict of string | Invalid of string

let commit_error_message = function Conflict m -> m | Invalid m -> m

let begin_ ?(branch = main_branch) t =
  locked t (fun () ->
      check_live t;
      let br = find_branch t branch in
      let txid = t.next_txid in
      t.next_txid <- txid + 1;
      Obs.Metrics.incr m_begin;
      { store = t;
        txid;
        txn_branch = branch;
        base = br.head;
        overlay = br.head;
        ops = [];
        writes = no_writes;
        state = Open
      })

let txid txn = txn.txid
let txn_branch txn = txn.txn_branch
let view txn = txn.overlay
let state txn = txn.state

let check_open txn =
  match txn.state with
  | Open -> ()
  | Committed v -> fail "transaction %d already committed as version %d" txn.txid v
  | Aborted r -> fail "transaction %d is aborted: %s" txn.txid r

(* Validate against the overlay and stage.  A failing op raises and
   leaves the transaction untouched (still open, overlay unchanged). *)
let stage txn op =
  let overlay = apply ?load_schema:txn.store.load_schema txn.overlay op in
  txn.overlay <- overlay;
  txn.ops <- op :: txn.ops;
  txn.writes <- writes_add txn.writes op

let new_object txn ty ~init =
  check_open txn;
  let oid = Oid.of_int txn.overlay.next_oid in
  stage txn (Database.Op_new { oid; ty; init });
  oid

let set_attr txn oid attr value =
  check_open txn;
  stage txn (Database.Op_set { oid; attr; value })

let delete txn ?(policy = Database.Restrict) oid =
  check_open txn;
  stage txn (Database.Op_delete { oid; policy })

let set_schema txn ~source =
  check_open txn;
  stage txn (Database.Op_set_schema { source })

(* Publish every pending commit that [w]'s durable prefix now covers;
   the caller holds the lock.  Commits on one branch are logged in
   version order, so the newest covered one wins. *)
let settle t w =
  let synced = Wal.writer_synced w in
  t.unsynced <-
    List.filter
      (fun p ->
        let covered = p.p_log == w && p.p_ends <= synced in
        if covered && p.p_branch.head.version < p.p_snap.version then
          p.p_branch.head <- p.p_snap;
        not covered)
      t.unsynced

(* [w] failed (it is poisoned and rolled back to its durable prefix):
   publish what did become durable and drop the rest — every branch's
   tip falls back to its head and the dropped write sets leave the
   history, so later commits are not checked against versions that
   never happened.  The caller holds the lock. *)
let abandon t w =
  settle t w;
  t.unsynced <- [];
  Hashtbl.iter
    (fun _ br ->
      br.tip <- br.head;
      br.recent <- List.filter (fun (v, _) -> v <= br.head.version) br.recent)
    t.branches

(* Abort records are audit trail, not correctness: losers never logged
   their ops (brackets are written only at commit), so replay needs no
   cancellation, and the record is written without an fsync of its own
   (the next commit's covers it).  A failure to record one must not
   mask the abort. *)
let log_abort t txn reason =
  match t.writer with
  | Some w when txn.ops <> [] && not (Wal.writer_poisoned w) -> (
      try ignore (Txn_log.write w [ Txn_log.Abort { txid = txn.txid; reason } ])
      with Wal.Wal_error _ | Sys_error _ | Unix.Unix_error _ -> abandon t w)
  | _ -> ()

let abort ?(reason = "aborted by client") txn =
  match txn.state with
  | Aborted _ -> ()
  | Committed v -> fail "transaction %d already committed as version %d" txn.txid v
  | Open ->
      txn.state <- Aborted reason;
      locked txn.store (fun () ->
          Obs.Metrics.incr m_abort;
          log_abort txn.store txn reason)

let first_writer_wins br txn =
  if txn.base.version = br.tip.version then None
  else if txn.base.version < br.floor then
    Some
      (Fmt.str "base version %d predates the retained write-set history (floor %d)"
         txn.base.version br.floor)
  else
    let clash =
      List.find_opt
        (fun (v, w) -> v > txn.base.version && writes_conflict w txn.writes)
        br.recent
    in
    Option.map
      (fun (v, _) ->
        Fmt.str "write set intersects version %d (committed after base %d)" v
          txn.base.version)
      clash

let trim_recent br =
  let rec take n = function
    | [] -> ([], [])
    | rest when n = 0 -> ([], rest)
    | x :: tl ->
        let kept, dropped = take (n - 1) tl in
        (x :: kept, dropped)
  in
  match take recent_limit br.recent with
  | _, [] -> ()
  | kept, (v, _) :: _ ->
      br.recent <- kept;
      br.floor <- v

(* Stamp [snap] with the next version and make it [br]'s tip,
   recording its write set — the one way a version is made, for
   commits, replica publication and log replay alike; the caller
   publishes it as the head.  The caller holds the lock. *)
let extend t br (snap : snapshot) writes =
  let v = t.version + 1 in
  t.version <- v;
  let snap = { snap with version = v } in
  br.tip <- snap;
  br.recent <- (v, writes) :: br.recent;
  trim_recent br;
  snap

let started () = if Obs.Metrics.is_on () then Some (Obs.Metrics.now_ns ()) else None

let record_since h = function
  | Some t0 -> Obs.Metrics.observe h (Obs.Metrics.now_ns () -. t0)
  | None -> ()

let abort_commit txn reason =
  txn.state <- Aborted reason;
  Obs.Metrics.incr m_abort

let conflict t txn reason =
  abort_commit txn reason;
  Obs.Metrics.incr m_conflict;
  log_abort t txn reason;
  Error (Conflict reason)

let committed txn (snap : snapshot) =
  txn.state <- Committed snap.version;
  Obs.Metrics.incr m_commit;
  Ok snap.version

(* The locked half of a commit: validate against the tip, write the
   bracket, extend the tip.  [`Done] when the commit is over (a
   conflict, or a store without fsync that published at once), [`Sync]
   when the bracket still needs its fsync. *)
let log_commit t txn =
  check_live t;
  let br = find_branch t txn.txn_branch in
  match first_writer_wins br txn with
  | Some reason -> `Done (conflict t txn reason)
  | None -> (
      let ops = List.rev txn.ops in
      (* Re-validate against the tip: write-set intersection cannot see
         read-write races (e.g. a staged reference to an object a later
         commit deleted), re-application does. *)
      match List.fold_left (fun snap op -> apply ?load_schema:t.load_schema snap op) br.tip ops with
      | exception Database.Store_error msg ->
          `Done (conflict t txn ("no longer applies to the branch head: " ^ msg))
      | snap -> (
          match t.writer with
          | None ->
              let snap = extend t br snap txn.writes in
              br.head <- snap;
              `Done (committed txn snap)
          | Some w -> (
              (* Write-ahead: the whole bracket goes out in one write
                 before the tip moves.  A crash (or failed write)
                 mid-bracket leaves a begin without a commit record,
                 which replay discards. *)
              let since = started () in
              let bracket =
                (Txn_log.Begin { txid = txn.txid; branch = txn.txn_branch }
                :: List.map (fun op -> Txn_log.Op { txid = txn.txid; op }) ops)
                @ [ Txn_log.Commit { txid = txn.txid } ]
              in
              match Txn_log.write w bracket with
              | exception exn ->
                  abandon t w;
                  abort_commit txn "transaction log write failed";
                  raise exn
              | ends ->
                  let snap = extend t br snap txn.writes in
                  if t.sync then begin
                    t.unsynced <-
                      { p_branch = br; p_snap = snap; p_log = w; p_ends = ends } :: t.unsynced;
                    `Sync (w, ends, since, snap)
                  end
                  else begin
                    Wal.sync_upto ?since w ends;
                    br.head <- snap;
                    `Done (committed txn snap)
                  end)))

let commit txn =
  match txn.state with
  | Committed v -> Error (Invalid (Fmt.str "transaction %d already committed as version %d" txn.txid v))
  | Aborted r -> Error (Invalid (Fmt.str "transaction %d is aborted: %s" txn.txid r))
  | Open when txn.ops = [] ->
      (* Read-only: nothing to publish, nothing to log. *)
      txn.state <- Committed txn.base.version;
      locked txn.store (fun () -> Obs.Metrics.incr m_commit);
      Ok txn.base.version
  | Open -> (
      let t = txn.store in
      let t0 = started () in
      let finish f =
        locked t (fun () ->
            Fun.protect ~finally:(fun () -> record_since m_commit_ns t0) f)
      in
      match finish (fun () -> log_commit t txn) with
      | `Done result -> result
      | `Sync (w, ends, since, snap) -> (
          (* Outside the lock: committers that wrote meanwhile share
             this fsync, and readers do not wait for it. *)
          match Wal.sync_upto ?since w ends with
          | () ->
              finish (fun () ->
                  settle t w;
                  committed txn snap)
          | exception exn ->
              finish (fun () ->
                  abandon t w;
                  abort_commit txn "transaction log fsync failed");
              raise exn))

(* ---- replication support ------------------------------------------- *)

(* A replica replays the primary's logs outside any transaction: it
   validates each op against its current head with [apply_op] and
   installs the successor with [publish] — or, for transaction-log
   records, feeds them to a {!replayer}.  Publication still maintains
   the per-branch write-set history, so local read-only transactions
   (and a post-promotion switch to writes) see a coherent store. *)

let apply_op t s op = apply ?load_schema:t.load_schema s op
let writes_of ops = List.fold_left writes_add no_writes ops

let publish t ~branch ~ops snap =
  locked t (fun () ->
      check_live t;
      let br = find_branch t branch in
      let snap = extend t br snap (writes_of ops) in
      br.head <- snap;
      snap.version)

let log_writer t = locked t (fun () -> t.writer)

let log_seqs t =
  locked t (fun () ->
      ( t.wal_seq,
        match t.writer with Some w -> Wal.writer_seq w - 1 | None -> 0 ))

(* ---- branches ------------------------------------------------------ *)

(* Create [branch] at [from_]'s head once [log] has recorded the
   fork; the caller holds the lock.  The fork record's fsync covers
   every bracket logged before it, so by then the head is the tip. *)
let add_branch t ~from_ ~branch ~log =
  if not (Txn_log.valid_branch_name branch) then fail "invalid branch name %S" branch;
  if Hashtbl.mem t.branches branch then fail "branch %s already exists" branch;
  let src = find_branch t from_ in
  log ();
  Hashtbl.replace t.branches branch
    { head = src.head; tip = src.head; recent = []; floor = src.head.version };
  src.head.version

let fork t ~from_ ~branch =
  locked t (fun () ->
      check_live t;
      add_branch t ~from_ ~branch ~log:(fun () ->
          match t.writer with
          | None -> ()
          | Some w -> (
              match Txn_log.append w (Txn_log.Fork { branch; from_ }) with
              | _ -> settle t w
              | exception exn ->
                  abandon t w;
                  raise exn)))

(* ---- transaction-log replay ----------------------------------------- *)

(* One replayer serves recovery and replicas.  It buffers each bracket
   until its commit (which publishes the whole bracket as one version)
   or abort (which drops it).  Structural damage — a commit without
   its begin, a fork of an existing branch — ends the replayable
   prefix at that record, and a committed bracket that does not apply,
   whatever the exception, ends it at the bracket's begin.  The
   replayer is its store's only writer while it runs; it takes the
   store lock to read and move heads, because a replica's store is
   read by server sessions while it applies. *)

type bracket = {
  b_branch : string;
  mutable b_ops : Database.op list;  (* reversed *)
  b_seq : int;
  b_start : int;
}

type replayer = { r_store : t; pending : (int, bracket) Hashtbl.t }

let replayer t = { r_store = t; pending = Hashtbl.create 8 }

let open_brackets r =
  Hashtbl.fold (fun _ b acc -> b.b_seq :: acc) r.pending [] |> List.sort compare

let replay r ~start (e : Txn_log.record Wal.framed) =
  let t = r.r_store in
  let stop ~seq ~offset reason = Error { Wal.at_seq = seq; offset; reason } in
  (* Everything but applying a committed bracket happens under the
     lock; the bracket applies outside it, then installs under it. *)
  match
    locked t (fun () ->
        (match e.Wal.fvalue with
        | Txn_log.Begin { txid; _ }
        | Txn_log.Op { txid; _ }
        | Txn_log.Commit { txid }
        | Txn_log.Abort { txid; _ } ->
            if txid >= t.next_txid then t.next_txid <- txid + 1
        | Txn_log.Fork _ -> ());
        match e.Wal.fvalue with
        | Txn_log.Begin { txid; branch } ->
            if Hashtbl.mem r.pending txid then fail "duplicate begin for txid %d" txid;
            ignore (find_branch t branch);
            Hashtbl.replace r.pending txid
              { b_branch = branch; b_ops = []; b_seq = e.Wal.fseq; b_start = start };
            None
        | Txn_log.Op { txid; op } -> (
            match Hashtbl.find_opt r.pending txid with
            | Some b ->
                b.b_ops <- op :: b.b_ops;
                None
            | None -> fail "op outside any open transaction (txid %d)" txid)
        | Txn_log.Abort { txid; _ } ->
            Hashtbl.remove r.pending txid;
            None
        | Txn_log.Fork { branch; from_ } ->
            ignore (add_branch t ~from_ ~branch ~log:ignore);
            None
        | Txn_log.Commit { txid } -> (
            match Hashtbl.find_opt r.pending txid with
            | None -> fail "commit without begin (txid %d)" txid
            | Some b ->
                Hashtbl.remove r.pending txid;
                let br = find_branch t b.b_branch in
                Some (b, br, br.tip)))
  with
  | exception exn -> stop ~seq:e.Wal.fseq ~offset:start (Wal.replay_failure_reason exn)
  | None -> Ok ()
  | Some (b, br, head) -> (
      let ops = List.rev b.b_ops in
      match List.fold_left (apply_op t) head ops with
      | exception exn ->
          stop ~seq:b.b_seq ~offset:b.b_start
            ("replayed transaction no longer applies: " ^ Wal.replay_failure_reason exn)
      | snap ->
          locked t (fun () -> br.head <- extend t br snap (writes_of ops));
          Ok ())

(* ---- recovery ------------------------------------------------------ *)

type opened = {
  store : t;
  wal_replayed : int;
  wal_corruption : Wal.corruption option;
  txn_applied : int;  (** committed transactions replayed *)
  txn_discarded : int;  (** dangling begin..op brackets dropped *)
  txn_corruption : Wal.corruption option;
  txn_valid_bytes : int;
  txn_next_seq : int;
  tmp_removed : bool;
}

(* Base state via {!Wal.recover_text}, then the replayer folded over
   the decoded transaction log, skipping records the snapshot
   absorbed.  A replay failure ends the prefix exactly like a checksum
   failure; brackets still open at the end — crash mid-commit — are
   discarded.  Also returns the replay failure, if the prefix ended on
   one: {!open_dir} must tell it from a damaged tail. *)
let recover ?load_schema ?(sync = true) ~schema ?snapshot ?wal ?txn () =
  let wal_rec = Wal.recover_text ?load_schema ~schema ?snapshot ?wal () in
  let base = snapshot_of_database wal_rec.Wal.db ~version:0 in
  let t = make ?load_schema ~sync base in
  t.wal_seq <- wal_rec.Wal.last_seq;
  let base_seq = match snapshot with Some s -> Dump.txn_seq s | None -> 0 in
  let d = Txn_log.decode (Option.value ~default:"" txn) in
  let r = replayer t in
  let applied, stopped, _ =
    List.fold_left
      (fun (applied, stopped, start) (e : Txn_log.record Wal.framed) ->
        let next = e.Wal.fends_at in
        if stopped <> None || e.Wal.fseq <= base_seq then (applied, stopped, next)
        else
          match (replay r ~start e, e.Wal.fvalue) with
          | Ok (), Txn_log.Commit _ -> (applied + 1, None, next)
          | Ok (), _ -> (applied, None, next)
          | Error c, _ -> (applied, Some c, next))
      (0, None, 0) d.Wal.fentries
  in
  let corruption, valid, next_seq =
    match stopped with
    | Some c -> (stopped, c.Wal.offset, c.Wal.at_seq)
    | None -> (d.Wal.fcorruption, d.Wal.fvalid_bytes, d.Wal.fnext_seq)
  in
  ( { store = t;
      wal_replayed = wal_rec.Wal.replayed;
      wal_corruption = wal_rec.Wal.corruption;
      txn_applied = applied;
      txn_discarded = List.length (open_brackets r);
      txn_corruption = corruption;
      txn_valid_bytes = valid;
      (* A checkpoint truncates the log but bakes its last txn-seq into
         the snapshot header; new records must continue past it, or the
         next recovery would skip them as already-in-snapshot. *)
      txn_next_seq = max next_seq (base_seq + 1);
      tmp_removed = false
    },
    stopped )

let recover_text ?load_schema ?sync ~schema ?snapshot ?wal ?txn () =
  fst (recover ?load_schema ?sync ~schema ?snapshot ?wal ?txn ())

let snapshot_file = "snapshot.dump"
let wal_file = "wal.log"
let txn_file = "txn.log"

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let open_dir ?load_schema ?(sync = true) ~schema dir =
  let snap_path = Filename.concat dir snapshot_file in
  let txn_path = Filename.concat dir txn_file in
  (* A crash between temp-write and rename leaves an orphaned .tmp
     sibling; it is never read as a snapshot, only removed. *)
  let tmp_removed = Dump.clean_tmp ~path:snap_path in
  let snapshot = read_file snap_path in
  let wal = read_file (Filename.concat dir wal_file) in
  let txn = read_file txn_path in
  let o, stopped = recover ?load_schema ~sync ~schema ?snapshot ?wal ?txn () in
  (* Repair a torn or corrupt tail before appending over it.  A record
     that decodes but does not replay is intact, acknowledged data:
     cutting the log there would delete every commit after it, so the
     store refuses to open and leaves txn.log as it is. *)
  (match (stopped, o.txn_corruption) with
  | Some c, _ ->
      fail "%s record %d (byte %d) does not replay: %s; the log is left intact" txn_file
        c.Wal.at_seq c.Wal.offset c.Wal.reason
  | None, Some _ when Sys.file_exists txn_path ->
      Wal.repair ~path:txn_path o.txn_valid_bytes
  | None, _ -> ());
  let writer =
    if Sys.file_exists txn_path then
      Txn_log.writer_open ~sync ~path:txn_path ~next_seq:o.txn_next_seq ()
    else Txn_log.writer_create ~sync ~path:txn_path ~next_seq:o.txn_next_seq ()
  in
  o.store.writer <- Some writer;
  o.store.dir <- Some dir;
  { o with tmp_removed }

(* ---- checkpoint and close ------------------------------------------ *)

(* Make every written bracket durable and published; the caller holds
   the lock.  A checkpoint must not absorb a txn seq whose bracket is
   not in the snapshot it writes, and a closed writer fsyncs nothing. *)
let drain t =
  match t.writer with
  | None -> ()
  | Some w -> (
      match Wal.sync_upto w max_int with
      | () -> settle t w
      | exception exn ->
          abandon t w;
          raise exn)

let checkpoint t =
  locked t (fun () ->
      check_live t;
      drain t;
      match t.dir with
      | None -> fail "checkpoint requires a directory-backed store"
      | Some dir ->
          if Hashtbl.length t.branches > 1 then
            fail "checkpoint requires a single branch (%d exist)"
              (Hashtbl.length t.branches);
          let br = Hashtbl.find t.branches main_branch in
          let txn_seq =
            match t.writer with Some w -> Wal.writer_seq w - 1 | None -> 0
          in
          (* The snapshot lands atomically with cursor headers naming
             the log records it absorbs; replay skips those, so a crash
             anywhere between the rename and the truncations below
             recovers to exactly this state. *)
          Dump.save ~wal_seq:t.wal_seq ~txn_seq
            ~path:(Filename.concat dir snapshot_file)
            (to_database br.head);
          let wal_path = Filename.concat dir wal_file in
          if Sys.file_exists wal_path then
            Wal.close
              (Wal.writer_create ~sync:false ~path:wal_path ~next_seq:(t.wal_seq + 1) ());
          (match t.writer with
          | None -> ()
          | Some w ->
              Wal.close w;
              t.writer <-
                Some
                  (Txn_log.writer_create ~sync:t.sync
                     ~path:(Filename.concat dir txn_file)
                     ~next_seq:(txn_seq + 1) ())))

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (try drain t with _ -> ());
        (match t.writer with None -> () | Some w -> Wal.close w);
        t.writer <- None
      end)
