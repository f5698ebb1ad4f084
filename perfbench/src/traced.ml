(* The traced run: the same workload, seed and sizes, with the server
   hosted in this process behind a timed handler, the Tdp_obs
   instruments on, and bench-side timings of the public functions that
   have no instrument.  It yields the per-layer metrics. *)

open Tdp_core
module M = Tdp_obs.Metrics
module Server = Tdp_txn.Server
module Mvcc = Tdp_txn.Mvcc
module F = Fixtures
module S = Pb.Samples

let us = 1e3
let ms = 1e6

(* ---- instrument snapshots ----------------------------------------------- *)

let hist (snap : M.snapshot) name =
  match List.assoc_opt name snap.histograms with
  | Some h -> h
  | None -> { M.count = 0; sum_ns = 0.; max_ns = 0.; p50_ns = 0.; p95_ns = 0.; p99_ns = 0. }

let counter (snap : M.snapshot) name = Option.value ~default:0 (List.assoc_opt name snap.counters)
let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* Bench-side timing of [f] over at most [limit] inputs. *)
let replay ?(limit = max_int) inputs f =
  let s = S.create () in
  List.iteri (fun i x -> if i < limit then S.add s (snd (Pb.time_ns (fun () -> f x)))) inputs;
  s

let inputs_of conns kind =
  List.concat_map
    (fun (c : Served.conn) ->
      List.rev (List.filter_map (fun (k, v) -> if k = kind then Some v else None) c.inputs))
    conns

(* ---- every per-layer metric, with its unit ------------------------------- *)

let per_layer =
  [ ("server.handle_us.p50", "us"); ("server.wire_us.p50", "us");
    ("stmt.parse_us.p50", "us");
    ("session.eval_us.typecheck", "us"); ("session.eval_us.select", "us");
    ("session.eval_us.call", "us"); ("session.eval_us.define", "us");
    ("infer.solve_us.p50", "us"); ("infer.constraints_per_stmt", "count");
    ("mvcc.begin_us.p50", "us"); ("mvcc.commit_us.p50", "us"); ("mvcc.get_attr_ns.p50", "ns");
    ("mvcc.extent_ms.p50", "ms"); ("mvcc.to_database_ms.p50", "ms"); ("mvcc.conflict_ratio", "ratio");
    ("wal.append_us.p50", "us"); ("wal.fsync_us.p50", "us"); ("wal.fsync_us.p99", "us");
    ("wal.fsyncs_per_commit", "count"); ("wal.bytes_per_commit", "B");
    ("wal.bytes_per_user_byte", "ratio");
    ("interp.call_us.p50", "us"); ("dispatch.hit_ratio", "ratio");
    ("catalog.define_ms.p50", "ms"); ("catalog.drop_ms.p50", "ms");
    ("projection.project_ms.p50", "ms"); ("applicability.analyze_ms.p50", "ms");
    ("invariants.check_ms.p50", "ms"); ("projection.surrogates_per_define", "count");
    ("applicability.retractions_per_define", "count"); ("schema_index.intern_hit_ratio", "ratio");
    ("store.extent_ms.p50", "ms"); ("pred.scan_ms.p50", "ms"); ("pred.rows_examined_per_result", "count");
    ("matview.refresh_ms.p50", "ms"); ("matview.rows_checked_per_refresh", "count");
    ("matview.skip_ratio", "ratio");
    ("recovery.open_dir_s", "s"); ("dump.load_ms", "ms"); ("wal.replay_ms", "ms");
    ("obs.trace_overhead", "ratio"); ("obs.lost_ratio", "ratio");
    (* self time per op: a layer's measured time minus its measured
       children (see [self_times]) *)
    ("self.wire_us", "us/op"); ("self.server_us", "us/op"); ("self.session_us", "us/op");
    ("self.mvcc_us", "us/op"); ("self.mvcc_commit_us", "us/op");
    ("self.wal_append_us", "us/op"); ("self.wal_fsync_us", "us/op"); ("self.infer_us", "us/op");
    ("self.projection_us", "us/op"); ("self.applicability_us", "us/op"); ("self.interp_us", "us/op");
    ("self.matview_us", "us/op"); ("self.store_extent_us", "us/op");
    ("self.pred_us", "us/op"); ("self.store_us", "us/op");
    ("trace.request_us", "us/op"); ("trace.unattributed_us", "us/op");
    ("trace.self_sum_ratio", "ratio") ]

type result = {
  tally : Pb.tally;
  values : (string * float) list;  (* a subset of [per_layer]; the rest read 0 *)
}

(* Self times from layer totals (ns over the traced phase), reported
   per op.  [root] is the bench's own time of the traced requests (or
   ops); no layer is derived from it.  What the layers leave of it is
   reported as [trace.unattributed_us], and [trace.self_sum_ratio] is
   the layers' sum over [root].  Nothing is clamped: a negative self
   time means a layer's children were measured longer than the layer. *)
let self_times ~ops ~root layers =
  let per_op v = ratio (v /. us) (float_of_int ops) in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. layers in
  ("trace.request_us", per_op root) :: ("trace.unattributed_us", per_op (root -. sum))
  :: ("trace.self_sum_ratio", ratio sum root)
  :: List.map (fun (n, v) -> (n, per_op v)) layers

(* The instrumented layers common to all workloads. *)
let instrument_values snap =
  let p50 name scale = (hist snap name).M.p50_ns /. scale in
  let hit = counter snap "dispatch.cache.hit" and miss = counter snap "dispatch.cache.miss" in
  let ihit = counter snap "schema_index.intern.hit" and imiss = counter snap "schema_index.intern.miss" in
  let skipped = counter snap "matview.rows_skipped" and checked = counter snap "matview.rows_checked" in
  [ ("infer.solve_us.p50", p50 "infer.solve_ns" us);
    ("mvcc.commit_us.p50", p50 "txn.commit_ns" us);
    ("wal.append_us.p50", p50 "wal.append_ns" us);
    ("wal.fsync_us.p50", p50 "wal.fsync_ns" us);
    ("wal.fsync_us.p99", (hist snap "wal.fsync_ns").M.p99_ns /. us);
    ("dispatch.hit_ratio", fratio hit (hit + miss));
    ("projection.project_ms.p50", p50 "projection.project_ns" ms);
    ("applicability.analyze_ms.p50", p50 "applicability.analyze_ns" ms);
    ("schema_index.intern_hit_ratio", fratio ihit (ihit + imiss));
    ("store.extent_ms.p50", p50 "store.extent_ns" ms);
    ("pred.scan_ms.p50", p50 "pred.scan_ns" ms);
    ("matview.refresh_ms.p50", p50 "matview.refresh_ns" ms);
    ("matview.rows_checked_per_refresh", fratio checked (hist snap "matview.refresh_ns").M.count);
    ("matview.skip_ratio", fratio skipped (skipped + checked)) ]

let with_instruments f =
  M.reset ();
  M.enable ();
  let r = Fun.protect ~finally:M.disable f in
  (r, M.snapshot ())

(* The untraced and the traced half of the run alternate in [slices]
   slices each, so drift in the host's speed falls on both alike.
   [tallies]/[use] read and swap the per-connection op tallies, so each
   half counts its own ops.  Returns the untraced and traced op rates,
   the number of traced ops, the tally of every op and the
   instruments of the traced slices. *)
let slices = 4

let alternate ~seconds ~untraced ~traced ~tallies ~use =
  let fresh () = List.map (fun _ -> Pb.tally ()) (tallies ()) in
  let ta = fresh () and tb = fresh () in
  let time_a = ref 0. and time_b = ref 0. in
  let part = seconds /. float_of_int slices in
  M.reset ();
  for _ = 1 to slices do
    use ta;
    time_a := !time_a +. Pb.seconds (untraced part);
    use tb;
    M.enable ();
    time_b := !time_b +. Pb.seconds (Fun.protect ~finally:M.disable (fun () -> traced part))
  done;
  let attempted ts = List.fold_left (fun a (t : Pb.tally) -> a + t.attempted) 0 ts in
  let all = Pb.tally () in
  List.iter (fun t -> Pb.merge_tally ~into:all t) (ta @ tb);
  ( float_of_int (attempted ta) /. !time_a,
    float_of_int (attempted tb) /. !time_b,
    attempted tb, all, M.snapshot () )

(* ---- served workloads ----------------------------------------------------- *)

(* Handler-side time of every request, per session in accept order;
   recorded only while [tracing] is set. *)
let tracing = Atomic.make false
let sessions : S.t list ref = ref []
let sessions_lock = Mutex.create ()

let timed_handler store () =
  let h = Server.store_handler ~store () in
  let s = S.create () in
  Mutex.protect sessions_lock (fun () -> sessions := !sessions @ [ s ]);
  { h with
    Server.h_line =
      (fun line ->
        if Atomic.get tracing then begin
          let r, dt = Pb.time_ns (fun () -> h.Server.h_line line) in
          S.add s dt;
          r
        end
        else h.Server.h_line line) }

let served ~(wl : Served.workload) ~seed ~seconds ~warmup ~dir ~schema =
  let sock = Filename.concat Pb.work_dir "traced.sock" in
  let load_schema = F.load_schema in
  let (opened, open_ns), recovery =
    with_instruments (fun () ->
        Pb.time_ns (fun () -> Mvcc.open_dir ~load_schema ~sync:true ~schema dir))
  in
  let store = opened.Mvcc.store in
  sessions := [];
  let srv = Server.start_handler (timed_handler store) (Unix.ADDR_UNIX sock) in
  let conns = Served.connect_all (Unix.ADDR_UNIX sock) ~seed wl in
  let session_of = Array.of_list !sessions in
  ignore (Served.run_phase wl conns ~seconds:warmup);
  List.iter Served.reset conns;
  let total f = List.fold_left (fun a (c : Served.conn) -> a + f c) 0 conns in
  let log_path = Filename.concat dir "txn.log" in
  let log_before = Pb.file_size log_path in
  let spans_sink, spans = Tdp_obs.Sink.memory () in
  let commits_b = ref 0 in
  let ops_a, ops_b, traced_ops, tally, snap =
    alternate ~seconds
      ~untraced:(fun part -> Served.run_phase wl conns ~seconds:part)
      ~traced:(fun part ->
        let c0 = total (fun c -> c.commits) in
        List.iter (fun (c : Served.conn) -> c.traced <- true) conns;
        Tdp_obs.Trace.set_sink spans_sink;
        Atomic.set tracing true;
        let ph = Served.run_phase wl conns ~seconds:part in
        Atomic.set tracing false;
        Tdp_obs.Trace.close ();
        List.iter (fun (c : Served.conn) -> c.traced <- false) conns;
        commits_b := !commits_b + total (fun c -> c.commits) - c0;
        ph)
      ~tallies:(fun () -> List.map (fun (c : Served.conn) -> c.tally) conns)
      ~use:(fun ts -> List.iter2 (fun (c : Served.conn) t -> c.tally <- t) conns ts)
  in
  (* log growth and user bytes cover both halves, as do [commits] *)
  let log_bytes = Pb.file_size log_path - log_before in
  let commits = total (fun c -> c.commits) and user_bytes = total (fun c -> c.user_bytes) in
  (* pair every client request with its handler time; the pings go
     apart *)
  let handle = S.create () and wire = S.create () and by_kind = Pb.Kinds.create () in
  let ping_wire = S.create () and ping_handle = S.create () in
  let root = ref 0. and sent = ref 0 in
  List.iteri
    (fun i (c : Served.conn) ->
      let h = session_of.(i) and kinds = Array.of_list (List.rev c.req_kinds) in
      sent := !sent + S.count c.req_ns;
      if S.count h <> S.count c.req_ns then
        Printf.eprintf "perfbench: session %d: %d handler samples for %d requests\n%!" i
          (S.count h) (S.count c.req_ns);
      for j = 0 to min (S.count h) (S.count c.req_ns) - 1 do
        let hj = S.get h j and cj = S.get c.req_ns j in
        if kinds.(j) = "ping" then begin
          S.add ping_wire (cj -. hj);
          S.add ping_handle hj
        end
        else begin
          S.add handle hj;
          S.add wire (cj -. hj);
          Pb.Kinds.add by_kind kinds.(j) hj;
          root := !root +. cj
        end
      done)
    conns;
  (* replays of the generated inputs against uninstrumented functions *)
  let head = Mvcc.head store ~branch:Mvcc.main_branch in
  let ints kind = List.map int_of_string (inputs_of conns kind) in
  let sources =
    List.concat_map (inputs_of conns) [ "typecheck"; "point_select"; "scan"; "call"; "define" ]
  in
  let parse = replay ~limit:5000 sources (fun src -> ignore (Tdp_lang.Stmt.parse src)) in
  let pay = F.at "pay_rate" in
  let get_attr =
    replay ~limit:20000 (ints "get" @ ints "key") (fun k ->
        ignore (Mvcc.get_attr head (Tdp_store.Oid.of_int k) pay))
  in
  let extent_inputs = List.concat_map (inputs_of conns) [ "point_select"; "scan"; "call" ] in
  let extent = replay ~limit:50 extent_inputs (fun _ -> ignore (Mvcc.extent head (F.ty "Employee"))) in
  let calls = ints "call_key" in
  let to_db = replay ~limit:10 calls (fun _ -> ignore (Mvcc.to_database head)) in
  let interp =
    match calls with
    | [] -> S.create ()
    | _ ->
        let it = Tdp_store.Interp.create ~now:F.interp_now (Mvcc.to_database head) in
        replay ~limit:200 calls (fun k ->
            ignore (Tdp_store.Interp.call it "age" [ Tdp_store.Value.Ref (Tdp_store.Oid.of_int k) ]))
  in
  let base = Mvcc.schema head in
  let defs = List.map F.parse_projection (inputs_of conns "projection") in
  let define = S.create () and drop = S.create () and check = S.create () in
  List.iteri
    (fun i (t, attrs) ->
      if i < 30 then begin
        let cat = Tdp_algebra.Catalog.create base in
        let expr = Tdp_algebra.View.Project (Tdp_algebra.View.Base t, attrs) in
        let r, dt = Pb.time_ns (fun () -> Tdp_algebra.Catalog.define cat ~name:"Replay" expr) in
        S.add define dt;
        (match r with
        | Ok (cat, _) -> S.add drop (snd (Pb.time_ns (fun () -> Tdp_algebra.Catalog.drop cat ~name:"Replay")))
        | Error _ -> ());
        match Projection.project ~check:false base ~view:"Replay" ~source:t ~projection:attrs () with
        | Ok o ->
            S.add check
              (snd
                 (Pb.time_ns (fun () ->
                      Invariants.check ~before:base ~after:o.schema ~derived:o.derived ~source:t
                        ~projection:attrs ~analysis:o.analysis)))
        | Error _ -> ()
      end)
    defs;
  Served.close_all conns;
  Server.stop srv;
  Mvcc.close store;
  (* The layers, totals in ns over the traced requests.  The wire and
     the server's own share of each request are the median of the
     pings' (round trip minus handler time, and handler time) times
     the request count.  An [eval] request's handler time is the
     session layer's span (Session, Stmt, Mvcc snapshot reads,
     to_database, rendering), any other verb's is the Mvcc layer's;
     each less the server's share and its instrumented children. *)
  let sum name = (hist snap name).M.sum_ns in
  let interp_total =
    List.fold_left
      (fun a (s : Tdp_obs.Sink.span) -> if s.name = "interp.call" then a +. s.duration_ns else a)
      0. (spans ())
  in
  let eval_kinds = [ "eval:typecheck"; "eval:point_select"; "eval:scan"; "eval:call"; "eval:define" ] in
  let count kinds = List.fold_left (fun a k -> a + Pb.Kinds.count by_kind k) 0 kinds in
  let n = S.count handle and n_eval = count eval_kinds in
  let h_eval = List.fold_left (fun a k -> a +. S.sum (Pb.Kinds.find by_kind k)) 0. eval_kinds in
  let h_other = S.sum handle -. h_eval in
  let server_share = S.pct ping_handle 0.5 in
  let infer = sum "infer.solve_ns" +. sum "infer.admit_ns" in
  let layers =
    [ ("self.wire_us", S.pct ping_wire 0.5 *. float_of_int n);
      ("self.server_us", server_share *. float_of_int n);
      ("self.session_us",
        h_eval -. (server_share *. float_of_int n_eval) -. infer -. sum "projection.project_ns" -. interp_total);
      ("self.mvcc_us", h_other -. (server_share *. float_of_int (n - n_eval)) -. sum "txn.commit_ns");
      ("self.mvcc_commit_us", sum "txn.commit_ns" -. sum "wal.append_ns");
      ("self.wal_append_us", sum "wal.append_ns" -. sum "wal.fsync_ns");
      ("self.wal_fsync_us", sum "wal.fsync_ns");
      ("self.infer_us", infer);
      ("self.projection_us", sum "projection.project_ns" -. sum "applicability.analyze_ns");
      ("self.applicability_us", sum "applicability.analyze_ns");
      ("self.interp_us", interp_total) ]
  in
  let defines = Pb.Kinds.count by_kind "eval:define" in
  let committed = counter snap "txn.commit" and conflicts = counter snap "txn.conflict" in
  let bench_events = !sent + !commits_b and obs_events = counter snap "server.requests" + committed in
  let values =
    instrument_values snap
    @ [ ("server.handle_us.p50", S.pct handle 0.5 /. us);
        ("server.wire_us.p50", S.pct wire 0.5 /. us);
        ("stmt.parse_us.p50", S.pct parse 0.5 /. us);
        ("session.eval_us.typecheck", Pb.Kinds.pct by_kind "eval:typecheck" 0.5 /. us);
        ("session.eval_us.select", Pb.Kinds.pct by_kind "eval:point_select" 0.5 /. us);
        ("session.eval_us.call", Pb.Kinds.pct by_kind "eval:call" 0.5 /. us);
        ("session.eval_us.define", Pb.Kinds.pct by_kind "eval:define" 0.5 /. us);
        ("infer.constraints_per_stmt", fratio (counter snap "infer.constraints") n_eval);
        ("mvcc.begin_us.p50", Pb.Kinds.pct by_kind "begin" 0.5 /. us);
        ("mvcc.get_attr_ns.p50", S.pct get_attr 0.5);
        ("mvcc.extent_ms.p50", S.pct extent 0.5 /. ms);
        ("mvcc.to_database_ms.p50", S.pct to_db 0.5 /. ms);
        ("mvcc.conflict_ratio", fratio conflicts (committed + conflicts));
        ("wal.fsyncs_per_commit", fratio (hist snap "wal.fsync_ns").M.count !commits_b);
        ("wal.bytes_per_commit", fratio log_bytes commits);
        ("wal.bytes_per_user_byte", fratio log_bytes user_bytes);
        ("interp.call_us.p50", S.pct interp 0.5 /. us);
        ("catalog.define_ms.p50", S.pct define 0.5 /. ms);
        ("catalog.drop_ms.p50", S.pct drop 0.5 /. ms);
        ("invariants.check_ms.p50", S.pct check 0.5 /. ms);
        ("projection.surrogates_per_define", fratio (counter snap "projection.surrogates") defines);
        ("applicability.retractions_per_define", fratio (counter snap "applicability.retractions") defines);
        ("recovery.open_dir_s", open_ns /. 1e9);
        ("dump.load_ms", (hist recovery "dump.load_ns").M.sum_ns /. ms);
        ("wal.replay_ms", (hist recovery "wal.replay_ns").M.sum_ns /. ms);
        ("obs.trace_overhead", 1. -. ratio ops_b ops_a);
        ("obs.lost_ratio", fratio (bench_events - obs_events) bench_events) ]
    @ self_times ~ops:traced_ops ~root:!root layers
  in
  { tally; values }

(* ---- the embedded views workload ----------------------------------------- *)

let views ~seed ~seconds ~warmup rows =
  let t = Views.setup ~seed rows in
  ignore (Views.run_phase t ~seconds:warmup);
  Views.reset t;
  (* latencies of the traced slices only *)
  let lat_a = Pb.Kinds.create () and lat_b = Pb.Kinds.create () in
  let ops_a, ops_b, traced_ops, tally, snap =
    alternate ~seconds
      ~untraced:(fun part -> t.lat <- lat_a; Views.run_phase t ~seconds:part)
      ~traced:(fun part -> t.lat <- lat_b; Views.run_phase ~traced:true t ~seconds:part)
      ~tallies:(fun () -> [ t.tally ])
      ~use:(fun ts -> t.tally <- List.hd ts)
  in
  let sum name = (hist snap name).M.sum_ns in
  let total kind = S.sum (Pb.Kinds.find lat_b kind) in
  (* root: the bench's time of each update (set_attr + refresh) and
     each scan; the store layer is the bench's time of set_attr *)
  let root = total "update" +. total "scan" in
  let layers =
    [ ("self.store_us", total "set_attr");
      ("self.matview_us", sum "matview.refresh_ns" -. sum "store.extent_ns");
      ("self.store_extent_us", sum "store.extent_ns");
      ("self.pred_us", sum "pred.scan_ns") ]
  in
  let examined, results =
    List.fold_left (fun (e, r) (e', r') -> (e + e', r + r')) (0, 0) t.scans
  in
  let values =
    instrument_values snap
    @ [ ("pred.rows_examined_per_result", fratio examined results);
        ("obs.trace_overhead", 1. -. ratio ops_b ops_a) ]
    @ self_times ~ops:traced_ops ~root layers
  in
  { tally; values }
