open Tdp_core
module Database = Tdp_store.Database
module Dump = Tdp_store.Dump
module Value = Tdp_store.Value
module Wal = Tdp_store.Wal
module Txn_log = Tdp_txn.Txn_log
module Mvcc = Tdp_txn.Mvcc
module Obs = Tdp_obs
open Helpers

let schema = Tdp_paper.Fig1.schema
let oid = Tdp_store.Oid.of_int
let load_schema src = (Tdp_lang.Elaborate.load_exn src).Tdp_lang.Elaborate.schema

let with_temp_dir f =
  let dir = Filename.temp_file "tdp_txn" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let commit_exn txn =
  match Mvcc.commit txn with
  | Ok v -> v
  | Error e -> Alcotest.failf "commit failed: %s" (Mvcc.commit_error_message e)

let new_employee txn n =
  Mvcc.new_object txn (ty "Employee")
    ~init:[ (at "ssn", Value.Int n); (at "name", Value.String "e") ]

(* ---- transaction lifecycle and snapshot isolation ------------------- *)

let test_commit_publishes () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  let o = new_employee t1 1 in
  Mvcc.set_attr t1 o (at "pay_rate") (Value.Float 60.0);
  (* staged but uncommitted: visible in the overlay, not at the head *)
  Alcotest.(check int) "overlay sees the write" 1 (Mvcc.count (Mvcc.view t1));
  Alcotest.(check int) "head does not" 0
    (Mvcc.count (Mvcc.head s ~branch:Mvcc.main_branch));
  let v = commit_exn t1 in
  Alcotest.(check int) "first version" 1 v;
  let head = Mvcc.head s ~branch:Mvcc.main_branch in
  Alcotest.(check int) "published" 1 (Mvcc.count head);
  Alcotest.(check string) "value" "60.0"
    (Dump.value_to_string (Mvcc.get_attr head o (at "pay_rate")))

let test_snapshot_isolation () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  let o = new_employee t1 1 in
  ignore (commit_exn t1);
  (* a reader pins the version it started from *)
  let reader = Mvcc.head s ~branch:Mvcc.main_branch in
  let t2 = Mvcc.begin_ s in
  Mvcc.set_attr t2 o (at "ssn") (Value.Int 99);
  ignore (commit_exn t2);
  Alcotest.(check string) "reader still sees version 1" "1"
    (Dump.value_to_string (Mvcc.get_attr reader o (at "ssn")));
  Alcotest.(check string) "new head sees version 2" "99"
    (Dump.value_to_string
       (Mvcc.get_attr (Mvcc.head s ~branch:Mvcc.main_branch) o (at "ssn")))

let test_first_writer_wins () =
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let o = new_employee t0 1 in
  ignore (commit_exn t0);
  (* two open transactions race on the same object *)
  let ta = Mvcc.begin_ s and tb = Mvcc.begin_ s in
  Mvcc.set_attr ta o (at "ssn") (Value.Int 10);
  Mvcc.set_attr tb o (at "ssn") (Value.Int 20);
  ignore (commit_exn ta);
  (match Mvcc.commit tb with
  | Ok _ -> Alcotest.fail "second writer must conflict"
  | Error (Mvcc.Conflict _) -> ()
  | Error (Mvcc.Invalid m) -> Alcotest.failf "expected conflict, got invalid: %s" m);
  (match Mvcc.state tb with
  | Mvcc.Aborted _ -> ()
  | _ -> Alcotest.fail "loser must be aborted");
  Alcotest.(check string) "winner's write survives" "10"
    (Dump.value_to_string
       (Mvcc.get_attr (Mvcc.head s ~branch:Mvcc.main_branch) o (at "ssn")));
  (* disjoint write sets do not conflict *)
  let tc = Mvcc.begin_ s and td = Mvcc.begin_ s in
  ignore (new_employee tc 2);
  Mvcc.set_attr td o (at "ssn") (Value.Int 30);
  ignore (commit_exn tc);
  ignore (commit_exn td)

let test_revalidation_conflict () =
  (* write sets are disjoint, but the staged op no longer applies: a
     concurrent commit deleted the object the reference points at *)
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let o = new_employee t0 1 in
  ignore (commit_exn t0);
  let ta = Mvcc.begin_ s and tb = Mvcc.begin_ s in
  Mvcc.delete ta o;
  Mvcc.set_attr tb o (at "ssn") (Value.Int 9);
  ignore (commit_exn ta);
  match Mvcc.commit tb with
  | Ok _ -> Alcotest.fail "write to a deleted object must conflict"
  | Error (Mvcc.Conflict _) -> ()
  | Error (Mvcc.Invalid m) -> Alcotest.failf "expected conflict, got invalid: %s" m

let test_abort_and_read_only () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  ignore (new_employee t1 1);
  Mvcc.abort t1;
  Alcotest.(check int) "abort publishes nothing" 0
    (Mvcc.count (Mvcc.head s ~branch:Mvcc.main_branch));
  (match Mvcc.commit t1 with
  | Error (Mvcc.Invalid _) -> ()
  | _ -> Alcotest.fail "committing an aborted txn must be invalid");
  (* read-only commits do not bump the version *)
  let t2 = Mvcc.begin_ s in
  Alcotest.(check int) "read-only commit" 0 (commit_exn t2);
  Alcotest.(check int) "version unchanged" 0 (Mvcc.current_version s)

let test_staging_failure_keeps_txn_open () =
  let s = Mvcc.create schema in
  let t1 = Mvcc.begin_ s in
  let o = new_employee t1 1 in
  (match Mvcc.set_attr t1 o (at "nonexistent") (Value.Int 1) with
  | () -> Alcotest.fail "bad attr must raise"
  | exception Database.Store_error _ -> ());
  (* the failed op left no trace; the transaction still commits *)
  Alcotest.(check int) "still one object staged" 1 (Mvcc.count (Mvcc.view t1));
  ignore (commit_exn t1)

let test_branches () =
  let s = Mvcc.create schema in
  let t0 = Mvcc.begin_ s in
  let o = new_employee t0 1 in
  ignore (commit_exn t0);
  ignore (Mvcc.fork s ~from_:Mvcc.main_branch ~branch:"dev");
  (* same-object writes on different branches are independent *)
  let tm = Mvcc.begin_ s and td = Mvcc.begin_ ~branch:"dev" s in
  Mvcc.set_attr tm o (at "ssn") (Value.Int 100);
  Mvcc.set_attr td o (at "ssn") (Value.Int 200);
  ignore (commit_exn tm);
  ignore (commit_exn td);
  Alcotest.(check string) "main head" "100"
    (Dump.value_to_string
       (Mvcc.get_attr (Mvcc.head s ~branch:Mvcc.main_branch) o (at "ssn")));
  Alcotest.(check string) "dev head" "200"
    (Dump.value_to_string (Mvcc.get_attr (Mvcc.head s ~branch:"dev") o (at "ssn")));
  Alcotest.(check (list (pair string int))) "branches listed"
    [ ("dev", 3); ("main", 2) ]
    (Mvcc.branches s)

(* ---- durability: log round-trip, dangling brackets, fault injection - *)

(* Run a canonical history against a directory-backed store: three
   committed transactions and one conflict-abort.  Returns the dump
   after each commit (the oracle states). *)
let canonical_history dir =
  let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
  let s = o.Mvcc.store in
  let dumps = ref [ Mvcc.dump (Mvcc.head s ~branch:Mvcc.main_branch) ] in
  let snap () =
    dumps := Mvcc.dump (Mvcc.head s ~branch:Mvcc.main_branch) :: !dumps
  in
  let t1 = Mvcc.begin_ s in
  let o1 = new_employee t1 1 in
  Mvcc.set_attr t1 o1 (at "pay_rate") (Value.Float (0.1 +. 0.2));
  ignore (commit_exn t1);
  snap ();
  let t2 = Mvcc.begin_ s in
  ignore (new_employee t2 2);
  Mvcc.set_attr t2 o1 (at "hrs_worked") (Value.Float 40.0);
  ignore (commit_exn t2);
  snap ();
  (* a conflict: its abort record lands in the log *)
  let ta = Mvcc.begin_ s and tb = Mvcc.begin_ s in
  Mvcc.set_attr ta o1 (at "ssn") (Value.Int 7);
  Mvcc.set_attr tb o1 (at "ssn") (Value.Int 8);
  ignore (commit_exn ta);
  snap ();
  (match Mvcc.commit tb with
  | Error (Mvcc.Conflict _) -> ()
  | _ -> Alcotest.fail "expected a conflict");
  Mvcc.close s;
  (o1, Array.of_list (List.rev !dumps))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_reopen_replays_commits () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "three commits replayed" 3 o.Mvcc.txn_applied;
      Alcotest.(check int) "none discarded" 0 o.Mvcc.txn_discarded;
      Alcotest.(check bool) "clean" true (o.Mvcc.txn_corruption = None);
      Alcotest.(check string) "state is the last commit" dumps.(3)
        (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch));
      Alcotest.(check int) "version restored" 3
        (Mvcc.current_version o.Mvcc.store);
      (* identities are never reused across recovery *)
      let t = Mvcc.begin_ o.Mvcc.store in
      let o3 = new_employee t 3 in
      Alcotest.(check bool) "fresh oid above every logged one" true
        (Tdp_store.Oid.to_int o3 >= 3);
      ignore (commit_exn t);
      Mvcc.close o.Mvcc.store)

let test_dangling_bracket_discarded () =
  with_temp_dir (fun dir ->
      let o1, dumps = canonical_history dir in
      (* crash mid-commit: a begin and its ops hit the log, the commit
         record did not *)
      let txid = 99 in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644
          (Filename.concat dir "txn.log") in
      let next =
        (Txn_log.decode (read_file (Filename.concat dir "txn.log"))).Wal.fnext_seq
      in
      output_string oc
        (Txn_log.encode ~seq:next
           (Txn_log.Begin { txid; branch = Mvcc.main_branch }));
      output_string oc
        (Txn_log.encode ~seq:(next + 1)
           (Txn_log.Op
              { txid;
                op = Database.Op_set { oid = o1; attr = at "ssn"; value = Value.Int 1234 }
              }));
      close_out oc;
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "commits replayed" 3 o.Mvcc.txn_applied;
      Alcotest.(check int) "dangling bracket discarded" 1 o.Mvcc.txn_discarded;
      Alcotest.(check string) "no torn state" dumps.(3)
        (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch));
      Mvcc.close o.Mvcc.store)

let test_txn_log_truncation_every_offset () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      let log = read_file (Filename.concat dir "txn.log") in
      let d = Txn_log.decode log in
      (* commits whose record ends at or before the cut are durable *)
      let commits_by t =
        List.length
          (List.filter
             (fun (e : Txn_log.record Wal.framed) ->
               e.Wal.fends_at <= t
               && match e.Wal.fvalue with Txn_log.Commit _ -> true | _ -> false)
             d.Wal.fentries)
      in
      for t = 0 to String.length log do
        let o =
          Mvcc.recover_text ~load_schema ~schema ~txn:(String.sub log 0 t) ()
        in
        let k = commits_by t in
        Alcotest.(check int) (Fmt.str "commits after cut at %d" t) k
          o.Mvcc.txn_applied;
        Alcotest.(check string)
          (Fmt.str "state after cut at %d" t)
          dumps.(k)
          (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch))
      done)

(* A committed bracket whose schema swap does not elaborate ends the
   replayable prefix at its begin, as any op that fails to apply does:
   recovery reports, it does not raise. *)
let test_unelaborable_schema_bracket () =
  let source = "type T { x : int; } type T { y : int; }" in
  let log =
    String.concat ""
      [ Txn_log.encode ~seq:1 (Txn_log.Begin { txid = 1; branch = Mvcc.main_branch });
        Txn_log.encode ~seq:2 (Txn_log.Op { txid = 1; op = Database.Op_set_schema { source } });
        Txn_log.encode ~seq:3 (Txn_log.Commit { txid = 1 })
      ]
  in
  let o = Mvcc.recover_text ~load_schema ~schema ~txn:log () in
  Alcotest.(check int) "nothing applied" 0 o.Mvcc.txn_applied;
  (match o.Mvcc.txn_corruption with
  | Some c ->
      Alcotest.(check int) "stops at the bracket's begin" 1 c.Wal.at_seq;
      Alcotest.(check int) "valid prefix is empty" 0 c.Wal.offset;
      Alcotest.(check int) "valid bytes" 0 o.Mvcc.txn_valid_bytes
  | None -> Alcotest.fail "expected txn_corruption");
  Alcotest.(check int) "head untouched" 0
    (Mvcc.count (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch))

(* A bracket that decodes but does not replay is intact data, not a
   torn tail: open_dir must refuse rather than cut the log there and
   drop the valid commit behind it. *)
let test_open_dir_keeps_unreplayable_log () =
  let bracket txid seq op =
    String.concat ""
      [ Txn_log.encode ~seq (Txn_log.Begin { txid; branch = Mvcc.main_branch });
        Txn_log.encode ~seq:(seq + 1) (Txn_log.Op { txid; op });
        Txn_log.encode ~seq:(seq + 2) (Txn_log.Commit { txid })
      ]
  in
  let valid_new =
    bracket 2 4
      (Database.Op_new { oid = oid 1; ty = ty "Employee"; init = [ (at "ssn", Value.Int 3) ] })
  in
  List.iter
    (fun (what, failing) ->
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "txn.log" in
          let log = bracket 1 1 failing ^ valid_new in
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc log);
          (match Mvcc.open_dir ~load_schema ~sync:false ~schema dir with
          | o ->
              Mvcc.close o.Mvcc.store;
              Alcotest.failf "%s: open_dir opened over an unreplayable bracket" what
          | exception Database.Store_error _ -> ());
          Alcotest.(check string) (what ^ ": txn.log byte-identical") log (read_file path)))
    [ ("unelaborable schema",
       Database.Op_set_schema { source = "type T { x : int; } type T { y : int; }" });
      ("rejected op",
       Database.Op_set { oid = oid 9; attr = at "ssn"; value = Value.Int 1 })
    ]

(* ---- checkpoint: crash at every step -------------------------------- *)

let test_checkpoint_roundtrip () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Mvcc.checkpoint o.Mvcc.store;
      Mvcc.close o.Mvcc.store;
      (* the log was truncated; the snapshot carries the state *)
      Alcotest.(check string) "log empty after checkpoint" ""
        (read_file (Filename.concat dir "txn.log"));
      let snap = read_file (Filename.concat dir "snapshot.dump") in
      Alcotest.(check bool) "txn-seq header present" true (Dump.txn_seq snap > 0);
      let o2 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "nothing to replay" 0 o2.Mvcc.txn_applied;
      Alcotest.(check string) "state preserved" dumps.(3)
        (Mvcc.dump (Mvcc.head o2.Mvcc.store ~branch:Mvcc.main_branch));
      (* and the store still accepts commits after the checkpoint *)
      let t = Mvcc.begin_ o2.Mvcc.store in
      ignore (new_employee t 50);
      ignore (commit_exn t);
      Mvcc.close o2.Mvcc.store;
      let o3 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "post-checkpoint commit replays" 1 o3.Mvcc.txn_applied;
      Mvcc.close o3.Mvcc.store)

let test_checkpoint_crash_before_rename () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      (* crash between temp-write and rename: an orphaned .tmp sibling
         full of garbage must be removed, never read as a snapshot *)
      let tmp = Filename.concat dir "snapshot.dump.tmp" in
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc "obj #1 Garbage x=nonsense\n");
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check bool) "orphan removed" true o.Mvcc.tmp_removed;
      Alcotest.(check bool) "gone from disk" false (Sys.file_exists tmp);
      Alcotest.(check string) "state from log, not orphan" dumps.(3)
        (Mvcc.dump (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch));
      Mvcc.close o.Mvcc.store)

let test_checkpoint_crash_before_truncate () =
  with_temp_dir (fun dir ->
      let _, dumps = canonical_history dir in
      (* crash after the snapshot rename but before the log truncation:
         replay must skip the absorbed prefix, not double-apply it *)
      let o = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      let log_before = read_file (Filename.concat dir "txn.log") in
      Mvcc.checkpoint o.Mvcc.store;
      Mvcc.close o.Mvcc.store;
      Out_channel.with_open_bin (Filename.concat dir "txn.log") (fun oc ->
          Out_channel.output_string oc log_before);
      let o2 = Mvcc.open_dir ~load_schema ~sync:false ~schema dir in
      Alcotest.(check int) "absorbed prefix skipped" 0 o2.Mvcc.txn_applied;
      Alcotest.(check string) "no double apply" dumps.(3)
        (Mvcc.dump (Mvcc.head o2.Mvcc.store ~branch:Mvcc.main_branch));
      Mvcc.close o2.Mvcc.store)

(* ---- writer failure atomicity (seq counter vs failed appends) ------- *)

let test_append_failure_poisons_writer () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.writer_create ~sync:true ~path ~next_seq:1 () in
      let op : Database.op =
        Op_new { oid = oid 1; ty = ty "Person"; init = [ (at "ssn", Value.Int 1) ] }
      in
      ignore (Wal.append w op);
      Alcotest.(check int) "seq advanced to 2" 2 (Wal.writer_seq w);
      let committed = read_file path in
      (* sabotage the writer: close its fd out from under it, so the
         flush/fsync of the next append fails mid-record *)
      Unix.close (Wal.writer_fd w);
      (match Wal.append w op with
      | _ -> Alcotest.fail "append on a dead fd must raise"
      | exception _ -> ());
      Alcotest.(check int) "seq NOT advanced by the failed append" 2
        (Wal.writer_seq w);
      Alcotest.(check bool) "writer poisoned" true (Wal.writer_poisoned w);
      (* every later append refuses rather than gapping the sequence *)
      (match Wal.append w op with
      | _ -> Alcotest.fail "poisoned writer must refuse"
      | exception Wal.Wal_error _ -> ());
      (* the durable prefix is exactly the committed records *)
      let d = Wal.decode (read_file path) in
      Alcotest.(check int) "one committed record" 1 (List.length d.Wal.entries);
      Alcotest.(check string) "file rolled back to the record boundary"
        committed (read_file path))

(* ---- group commit ---------------------------------------------------- *)

let fsync_count () =
  match List.assoc_opt "wal.fsync_ns" (Obs.Metrics.snapshot ()).histograms with
  | Some h -> h.Obs.Metrics.count
  | None -> 0

(* Three batches written before any sync: the first sync_upto fsyncs
   them all, the other two find their bytes covered.  Then a group
   whose fsync fails: every member fails, the durable prefix stays. *)
let test_sync_upto_shares_and_fails_as_a_group () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.log" in
      let w = Wal.writer_create ~sync:true ~path ~next_seq:1 () in
      let ends = List.map (fun p -> Wal.write w [ p; p ]) [ "a"; "b"; "c" ] in
      Alcotest.(check int) "two records per batch" 7 (Wal.writer_seq w);
      let shared =
        Fun.protect ~finally:Obs.Metrics.disable (fun () ->
            Obs.Metrics.enable ();
            Obs.Metrics.reset ();
            List.iter (Wal.sync_upto w) (List.rev ends);
            fsync_count ())
      in
      Alcotest.(check int) "one fsync covers three writes" 1 shared;
      let synced = Wal.writer_synced w in
      Alcotest.(check int) "synced to the end" (List.nth ends 2) synced;
      let group = List.map (fun p -> Wal.write w [ p ]) [ "d"; "e" ] in
      (* the fd now names a pipe: writes land, the fsync fails *)
      let rd, wr = Unix.pipe () in
      Fun.protect
        ~finally:(fun () ->
          Wal.close w;
          Unix.close rd;
          Unix.close wr)
        (fun () ->
          Unix.dup2 wr (Wal.writer_fd w);
          (match Wal.sync_upto w (List.hd group) with
          | () -> Alcotest.fail "fsync of a pipe must fail"
          | exception Unix.Unix_error _ -> ());
          (match Wal.sync_upto w (List.nth group 1) with
          | () -> Alcotest.fail "the rest of the group must fail too"
          | exception Wal.Wal_error _ -> ());
          Wal.sync_upto w synced;
          Alcotest.(check bool) "writer poisoned" true (Wal.writer_poisoned w);
          Alcotest.(check int) "durable prefix unchanged" synced (Wal.writer_synced w);
          match Wal.write w [ "f" ] with
          | _ -> Alcotest.fail "a poisoned writer must refuse writes"
          | exception Wal.Wal_error _ -> ()))

(* The inputs of each case (commit counts, values, checkpoint pacing)
   come from a seed that every failure message names;
   [TDP_TXN_SEED=<seed>] replays those inputs (the interleaving of the
   domains is the scheduler's). *)
let group_seed () =
  match Sys.getenv_opt "TDP_TXN_SEED" with
  | Some s -> int_of_string s
  | None ->
      Random.self_init ();
      Random.int 999_999

let replay seed = Fmt.str "seed %d (replay: TDP_TXN_SEED=%d dune exec test/test_txn.exe)" seed seed

(* A durable store (fsync on) holding [n] Employees, one row per
   writer so concurrent commits never conflict. *)
let durable_rows dir n =
  let o = Mvcc.open_dir ~load_schema ~sync:true ~schema dir in
  let t = Mvcc.begin_ o.Mvcc.store in
  let oids = Array.init n (fun i -> new_employee t i) in
  ignore (commit_exn t);
  (o.Mvcc.store, oids)

(* One update of [oid]'s pay rate: the txid and how the commit ended. *)
let set_pay store oid v =
  let t = Mvcc.begin_ store in
  Mvcc.set_attr t oid (at "pay_rate") (Value.Float v);
  (Mvcc.txid t, match Mvcc.commit t with r -> Ok r | exception e -> Error e)

let in_domains n f = List.init n (fun w -> Domain.spawn (fun () -> f w)) |> List.map Domain.join

let main_dump store = Mvcc.dump (Mvcc.head store ~branch:Mvcc.main_branch)

(* The txids of the committed brackets in [dir]'s txn.log, in log
   order, with the byte offset each commit record ends at. *)
let logged_commits dir =
  let d = Txn_log.decode (read_file (Filename.concat dir "txn.log")) in
  List.filter_map
    (fun (e : Txn_log.record Wal.framed) ->
      match e.Wal.fvalue with
      | Txn_log.Commit { txid } -> Some (txid, e.Wal.fends_at)
      | _ -> None)
    d.Wal.fentries

let pay_values st n = Array.init n (fun _ -> float_of_int (Random.State.int st 10_000))

let test_group_commit_two_writers () =
  let seed = group_seed () in
  let what = replay seed in
  let st = Random.State.make [| seed |] in
  let per_writer = 20 + Random.State.int st 30 in
  let values = Array.init 2 (fun _ -> pay_values st per_writer) in
  with_temp_dir (fun dir ->
      let store, oids = durable_rows dir 2 in
      let results, commits, fsyncs =
        Fun.protect ~finally:Obs.Metrics.disable (fun () ->
            Obs.Metrics.enable ();
            Obs.Metrics.reset ();
            let results =
              in_domains 2 (fun w ->
                  Array.to_list (Array.map (set_pay store oids.(w)) values.(w)))
            in
            ( List.concat results,
              Obs.Metrics.counter_value (Obs.Metrics.counter "txn.commit"),
              fsync_count () ))
      in
      let acked =
        List.filter_map
          (fun (txid, r) -> match r with Ok (Ok _) -> Some txid | _ -> None)
          results
      in
      Alcotest.(check int) (what ^ ": every disjoint commit acknowledged") (2 * per_writer)
        (List.length acked);
      Alcotest.(check int) (what ^ ": txn.commit counts exactly") (2 * per_writer) commits;
      Alcotest.(check bool)
        (Fmt.str "%s: %d fsyncs for %d commits" what fsyncs commits)
        true (fsyncs <= commits);
      let before = main_dump store in
      Mvcc.close store;
      let logged = List.map fst (logged_commits dir) in
      List.iter
        (fun txid ->
          if not (List.mem txid logged) then
            Alcotest.failf "%s: acknowledged txn %d is not in txn.log" what txid)
        acked;
      let o = Mvcc.open_dir ~load_schema ~schema dir in
      Alcotest.(check int) (what ^ ": every bracket replays") (1 + (2 * per_writer))
        o.Mvcc.txn_applied;
      Alcotest.(check string) (what ^ ": reopen equals the last head") before
        (main_dump o.Mvcc.store);
      Array.iteri
        (fun w oid ->
          Alcotest.(check string)
            (Fmt.str "%s: writer %d's last value" what w)
            (Dump.value_to_string (Value.Float values.(w).(per_writer - 1)))
            (Dump.value_to_string
               (Mvcc.get_attr (Mvcc.head o.Mvcc.store ~branch:Mvcc.main_branch) oid
                  (at "pay_rate"))))
        oids;
      Mvcc.close o.Mvcc.store)

let test_group_fsync_failure () =
  let seed = group_seed () in
  let what = replay seed in
  let st = Random.State.make [| seed |] in
  let before_failure = 1 + Random.State.int st 5 in
  let per_writer = 1 + Random.State.int st 10 in
  with_temp_dir (fun dir ->
      let store, oids = durable_rows dir 2 in
      let acked =
        List.map
          (fun v ->
            match set_pay store oids.(0) v with
            | txid, Ok (Ok _) -> txid
            | _ -> Alcotest.failf "%s: commit before the failure did not succeed" what)
          (Array.to_list (pay_values st before_failure))
      in
      let head = Mvcc.head store ~branch:Mvcc.main_branch in
      let w = Option.get (Mvcc.log_writer store) in
      let synced = Wal.writer_synced w in
      (* sabotage: the log's fd now names a pipe, so writes succeed and
         the fsync that should cover them fails (EINVAL) *)
      let rd, wr = Unix.pipe () in
      Fun.protect
        ~finally:(fun () ->
          Mvcc.close store;
          Unix.close rd;
          Unix.close wr)
        (fun () ->
          Unix.dup2 wr (Wal.writer_fd w);
          let results =
            List.concat
              (in_domains 2 (fun i ->
                   Array.to_list (Array.map (set_pay store oids.(i)) (pay_values st per_writer))))
          in
          List.iter
            (fun (txid, r) ->
              match r with
              | Ok (Ok v) ->
                  Alcotest.failf "%s: txn %d committed as %d after the failure" what txid v
              | Ok (Error e) ->
                  Alcotest.failf "%s: txn %d: %s" what txid (Mvcc.commit_error_message e)
              | Error _ -> ())
            results;
          Alcotest.(check bool) (what ^ ": a group fsync failed") true
            (List.exists
               (fun (_, r) -> match r with Error (Unix.Unix_error _) -> true | _ -> false)
               results);
          let after = Mvcc.head store ~branch:Mvcc.main_branch in
          Alcotest.(check int) (what ^ ": head version unchanged") (Mvcc.version head)
            (Mvcc.version after);
          Alcotest.(check string) (what ^ ": head unchanged") (Mvcc.dump head) (Mvcc.dump after);
          Alcotest.(check bool) (what ^ ": writer poisoned") true (Wal.writer_poisoned w);
          Alcotest.(check int) (what ^ ": durable prefix unchanged") synced (Wal.writer_synced w);
          (* the tip fell back: a fresh transaction sees the old head *)
          let t = Mvcc.begin_ store in
          Alcotest.(check int) (what ^ ": new txn starts at the head") (Mvcc.version head)
            (Mvcc.version (Mvcc.view t));
          Mvcc.abort t);
      Alcotest.(check (list int)) (what ^ ": txn.log holds exactly the acknowledged brackets")
        (1 :: acked)
        (List.map fst (logged_commits dir));
      let o = Mvcc.open_dir ~load_schema ~schema dir in
      Alcotest.(check string) (what ^ ": reopen equals the last acknowledged head")
        (Mvcc.dump head) (main_dump o.Mvcc.store);
      Mvcc.close o.Mvcc.store)

let test_head_durable_before_visible () =
  let seed = group_seed () in
  let what = replay seed in
  let st = Random.State.make [| seed |] in
  let per_writer = 30 + Random.State.int st 30 in
  let values = Array.init 2 (fun _ -> pay_values st per_writer) in
  with_temp_dir (fun dir ->
      let store, oids = durable_rows dir 2 in
      let w = Option.get (Mvcc.log_writer store) in
      let writing = Atomic.make 2 in
      (* the reader reads the head, then the durable offset; it keeps
         the first sighting of each version, whose offset is smallest *)
      let reader () =
        let seen = ref [] and last = ref (-1) in
        while Atomic.get writing > 0 do
          let v = Mvcc.version (Mvcc.head store ~branch:Mvcc.main_branch) in
          let synced = Wal.writer_synced w in
          if v <> !last then begin
            seen := (v, synced) :: !seen;
            last := v
          end
        done;
        !seen
      in
      let r = Domain.spawn reader in
      ignore
        (in_domains 2 (fun i ->
             Fun.protect
               ~finally:(fun () -> Atomic.decr writing)
               (fun () -> Array.iter (fun v -> ignore (set_pay store oids.(i) v)) values.(i))));
      let seen = Domain.join r in
      Mvcc.close store;
      (* version k is the k-th committed bracket of the log *)
      let ends = Array.of_list (List.map snd (logged_commits dir)) in
      List.iter
        (fun (v, synced) ->
          if v >= 1 && ends.(v - 1) > synced then
            Alcotest.failf "%s: version %d visible with its bracket ending at byte %d, synced %d"
              what v ends.(v - 1) synced)
        seen)

let test_checkpoint_races_committers () =
  let seed = group_seed () in
  let what = replay seed in
  let st = Random.State.make [| seed |] in
  let per_writer = 60 + Random.State.int st 60 in
  let pause = 0.0001 *. float_of_int (Random.State.int st 4) in
  let values = Array.init 2 (fun _ -> pay_values st per_writer) in
  with_temp_dir (fun dir ->
      let store, oids = durable_rows dir 2 in
      let writing = Atomic.make 2 in
      let checkpoints = ref 0 in
      let checkpointer =
        Domain.spawn (fun () ->
            while Atomic.get writing > 0 do
              Mvcc.checkpoint store;
              incr checkpoints;
              Unix.sleepf pause
            done;
            !checkpoints)
      in
      let results =
        in_domains 2 (fun i ->
            Fun.protect
              ~finally:(fun () -> Atomic.decr writing)
              (fun () -> Array.map (fun v -> snd (set_pay store oids.(i) v)) values.(i)))
      in
      let checkpoints = Domain.join checkpointer in
      List.iter
        (Array.iter (function
          | Ok (Ok _) -> ()
          | _ -> Alcotest.failf "%s: a commit racing checkpoints failed" what))
        results;
      let last = main_dump store in
      Mvcc.close store;
      let o = Mvcc.open_dir ~load_schema ~schema dir in
      Alcotest.(check string)
        (Fmt.str "%s: reopen equals the last acknowledged head (%d checkpoints)" what
           checkpoints)
        last (main_dump o.Mvcc.store);
      Mvcc.close o.Mvcc.store)

(* ---- Database and Mvcc apply one rule set --------------------------- *)

(* Fig. 1 plus a type with a reference to Employee and one to itself,
   so random ops hit dangling, wrongly typed and self references. *)
let diff_schema =
  Schema.add_type schema
    (Type_def.make
       ~attrs:
         [ Attribute.make (at "manager") (Value_type.named (ty "Employee"));
           Attribute.make (at "peer") (Value_type.named (ty "Team"))
         ]
       (ty "Team"))

let diff_attrs =
  [| "ssn"; "name"; "date_of_birth"; "pay_rate"; "hrs_worked"; "manager"; "peer";
     "foo"; "bar"
  |]

(* A type's own attributes, so that most creations are valid. *)
let attrs_of = function
  | "Person" -> [| "ssn"; "name"; "date_of_birth" |]
  | "Employee" -> [| "ssn"; "name"; "pay_rate"; "hrs_worked" |]
  | "Team" -> [| "manager"; "peer" |]
  | _ -> diff_attrs

let max_diff_oid = 12

(* A random op over the live OIDs [live], biased towards values the
   attribute accepts and towards live targets, so that sequences build
   up references worth deleting. *)
let random_op st ~live : Database.op =
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let any_oid () = oid (1 + int max_diff_oid) in
  let live_oid () =
    match live with
    | l when l <> [] && int 8 > 0 -> List.nth l (int (List.length l))
    | _ -> any_oid ()
  in
  let value attr =
    match (int 3, attr) with
    | 0, _ -> (
        match int 7 with
        | 0 -> Value.Null
        | 1 -> Value.Int (int 10)
        | 2 -> Value.String "s"
        | 3 -> Value.Float 0.5
        | 4 -> Value.Bool true
        | 5 -> Value.Date 1994
        | _ -> Value.Ref (live_oid ()))
    | _, ("ssn" | "foo" | "bar") -> Value.Int (int 10)
    | _, "name" -> Value.String "n"
    | _, "date_of_birth" -> Value.Date (1900 + int 100)
    | _, ("pay_rate" | "hrs_worked") -> Value.Float 1.5
    | _ -> Value.Ref (live_oid ())
  in
  let binding attrs =
    let a = pick attrs in
    (at a, value a)
  in
  match int 10 with
  | 0 | 1 | 2 | 3 ->
      let tn = if int 8 = 0 then "Nope" else pick [| "Person"; "Employee"; "Team" |] in
      let attrs = if int 4 = 0 then diff_attrs else attrs_of tn in
      let init = List.init (int 4) (fun _ -> binding attrs) in
      let init =
        match (int 6, init) with
        | 0, ((n, _) :: _ as l) -> l @ [ (n, Value.String "dup") ]
        | 1, l -> l @ [ (at "foo", Value.Int 1); (at "bar", Value.Int 2) ]
        | _, l -> l
      in
      Op_new { oid = any_oid (); ty = ty tn; init }
  | 4 | 5 | 6 | 7 -> (
      let o = live_oid () in
      match int 5 with
      | 0 -> Op_set { oid = o; attr = at "peer"; value = Value.Ref o }
      | _ ->
          let attr, value = binding diff_attrs in
          Op_set { oid = o; attr; value })
  | _ ->
      Op_delete
        { oid = live_oid ();
          policy = (if int 2 = 0 then Database.Restrict else Database.Nullify)
        }

let run_diff_case seed =
  let st = Random.State.make [| seed |] in
  let db = Database.create diff_schema in
  let store = Mvcc.create diff_schema in
  let snap = ref (Mvcc.head store ~branch:Mvcc.main_branch) in
  let outcome f =
    match f () with () -> Ok () | exception Database.Store_error m -> Error m
  in
  let show = function Ok () -> "accepted" | Error m -> "rejected: " ^ m in
  for step = 1 to 60 do
    let live = List.map (fun (o, _, _) -> o) (Mvcc.objects !snap) in
    let op = random_op st ~live in
    let by_db = outcome (fun () -> Wal.apply db op) in
    let by_mvcc = outcome (fun () -> snap := Mvcc.apply_op store !snap op) in
    let what = Fmt.str "seed %d, op %d (%s)" seed step (Wal.payload_to_string op) in
    if by_db <> by_mvcc then
      QCheck.Test.fail_reportf "%s: Database %s, Mvcc %s" what (show by_db)
        (show by_mvcc);
    let d = Dump.to_string db and m = Mvcc.dump !snap in
    if d <> m then
      QCheck.Test.fail_reportf "%s: states differ@.Database:@.%s@.Mvcc:@.%s" what d m
  done;
  true

(* A failing case prints its seed; [TDP_TXN_SEED=<seed>] replays
   exactly that case. *)
let prop_rules_differential =
  let gen =
    match Sys.getenv_opt "TDP_TXN_SEED" with
    | Some s -> QCheck.Gen.return (int_of_string s)
    | None -> QCheck.Gen.int_bound 999_999
  in
  QCheck.Test.make ~name:"Database and Mvcc accept, reject and end alike" ~count:300
    (QCheck.make gen ~print:(fun s ->
         Fmt.str "seed %d (replay: TDP_TXN_SEED=%d dune exec test/test_txn.exe)" s s))
    run_diff_case

let suite =
  [ Alcotest.test_case "commit publishes a new version" `Quick test_commit_publishes;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "first writer wins" `Quick test_first_writer_wins;
    Alcotest.test_case "revalidation catches read-write races" `Quick
      test_revalidation_conflict;
    Alcotest.test_case "abort and read-only commits" `Quick test_abort_and_read_only;
    Alcotest.test_case "staging failure keeps the txn open" `Quick
      test_staging_failure_keeps_txn_open;
    Alcotest.test_case "branches are independent" `Quick test_branches;
    Alcotest.test_case "reopen replays committed brackets" `Quick
      test_reopen_replays_commits;
    Alcotest.test_case "dangling bracket discarded (crash mid-commit)" `Quick
      test_dangling_bracket_discarded;
    Alcotest.test_case "txn log truncation at every byte offset" `Quick
      test_txn_log_truncation_every_offset;
    Alcotest.test_case "unelaborable schema bracket ends the prefix" `Quick
      test_unelaborable_schema_bracket;
    Alcotest.test_case "open_dir leaves an unreplayable log intact" `Quick
      test_open_dir_keeps_unreplayable_log;
    Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint crash before rename (orphaned tmp)" `Quick
      test_checkpoint_crash_before_rename;
    Alcotest.test_case "checkpoint crash before truncate (no double apply)"
      `Quick test_checkpoint_crash_before_truncate;
    Alcotest.test_case "failed append poisons the writer" `Quick
      test_append_failure_poisons_writer;
    Alcotest.test_case "sync_upto shares one fsync and fails as a group" `Quick
      test_sync_upto_shares_and_fails_as_a_group;
    Alcotest.test_case "group commit: two writers share fsyncs" `Quick
      test_group_commit_two_writers;
    Alcotest.test_case "group commit: a failed fsync aborts the whole group" `Quick
      test_group_fsync_failure;
    Alcotest.test_case "group commit: a head is durable before it is visible" `Quick
      test_head_durable_before_visible;
    Alcotest.test_case "group commit: checkpoint races two committers" `Quick
      test_checkpoint_races_committers;
    QCheck_alcotest.to_alcotest prop_rules_differential
  ]

let () = Alcotest.run "txn" [ ("txn", suite) ]
