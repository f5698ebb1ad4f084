(* End-to-end benchmark of the served system.

     main.exe --workload oltp|query|derive|views|all --seed N --seconds S
              --trace 0|1 [--odb PATH] [--report FILE]
     main.exe --compare A.json B.json

   [--trace 0] drives the real [odb serve] (or, for [views], the
   embedded store) and prints the end-to-end metrics; [--trace 1] runs
   the same workload with the server hosted in-process and prints the
   per-layer metrics.  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

module J = Tdp_obs.Json
module F = Fixtures

let workloads = [ "oltp"; "query"; "derive"; "views" ]

(* Store sizes: any O(n) step shows at 100k; a served call costs O(n),
   so the query store is 10k (see the workload comments). *)
let rows_of = function "oltp" | "views" -> 100_000 | "query" -> 10_000 | _ -> 0

(* Each workload's two defining op kinds: the one it exists for, and
   its companion.  The end-to-end metrics name them by role so every
   workload reports the same metric set. *)
let roles = function
  | "oltp" -> ("write_txn", "get")
  | "query" -> ("call", "point_select")
  | "derive" -> ("define", "typecheck")
  | _ -> ("refresh", "scan")

(* ---- provenance ---------------------------------------------------------- *)

let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                   || Filename.basename p = "dune" then [ p ]
           else [])
  in
  let all = List.concat_map files [ "lib"; "bin" ] in
  Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun p -> p ^ Pb.read_file p) all)))

(* What must match for two reports to be comparable, then what only
   identifies the run. *)
let config ~workload ~seconds ~trace =
  let conns = match workload with "oltp" | "query" -> 2 | "derive" | "views" -> 1 | _ -> 0 in
  [ ("workload", J.String workload);
    ("seconds", J.Float seconds);
    ("trace", J.Bool trace);
    ("rows", J.Int (rows_of workload));
    ("synth_types", J.Int (if workload = "derive" then F.synth_config.n_types else 0));
    ("connections", J.Int conns);
    ("fsync", J.String (match workload with "views" -> "none" | _ -> "per-commit"));
    ("cores", J.Int (Domain.recommended_domain_count ()));
    ("ocaml", J.String Sys.ocaml_version);
    ("fs_type", J.String (Option.value ~default:"unknown" (Pb.command_output "stat" [ "-f"; "-c"; "%T"; "." ])))
  ]

let provenance ~seed =
  [ ("seed", J.Int seed);
    ("commit",
      J.String (Option.value ~default:"unknown" (Pb.command_output "git" [ "rev-parse"; "HEAD" ])));
    ("source_digest", J.String (source_digest ())) ]

(* ---- one run ----------------------------------------------------------------- *)

type outcome = {
  tally : Pb.tally;
  metrics : (string * string * float) list;  (* name, unit, value *)
  ops : (string * Pb.Samples.t) list;  (* per op kind, for the report *)
  human : (string * string * float) list;  (* the per-op-kind figures by name *)
}

let warmup seconds = Float.min 1. (seconds /. 10.)
(* Set-up is repeated: at least [at_least] times, then until 4 s have
   gone into it, at most 25 times. *)
let enough_setups ?(at_least = 5) times =
  let n = List.length times in
  n >= 25 || (n >= at_least && List.fold_left ( +. ) 0. times >= 4e9)

(* [setup_s], the lower quartile of the set-up times (the quieter
   quarter, as for the phase's figures, see [Pb.phase]) at reference
   speed: read against the [Cpu] kernel runs of the measured phase
   that follows, since set-up computes (recovery, or building the
   store).  And [setup_wall_s], the same quartile as measured. *)
let setup_figures phase times =
  let wall = Pb.quantile times 0.25 /. 1e9 in
  (wall *. Pb.Calib.scale [ (Cpu, 1.) ] phase.Pb.calib, ("setup_wall_s", "s", wall))

let served_workload name ~seed rows =
  match name with
  | "oltp" -> Served.oltp rows
  | "query" -> Served.query rows ~seed
  | _ -> Served.derive (F.load_schema (F.synth_src ())) ~seed

let prepare_store name ~seed =
  let dir = Filename.concat Pb.work_dir "store" in
  let rows = F.gen_rows ~seed (rows_of name) in
  let schema_src = if name = "derive" then F.synth_src () else F.employee_src in
  F.make_store_dir ~dir ~schema_src rows;
  (dir, rows, schema_src)

(* The reference kernels each op kind's times are read against (see
   [Pb.Calib]), with the share of its time that goes to each one's
   resource.  An [oltp] write txn splits its time about 0.35 fsync,
   0.55 computation and 0.1 round trips, as the traced run splits it
   ([self.wal_fsync_us], [self.mvcc_us] and [self.wire_us]); a get is
   a round trip.  Its op rate follows the fsyncs alone: the two
   writers' commits queue on the one log's fsync.  A [views] scan is a
   tight loop over a column.  Every other op computes. *)
let mix_of name kind : Pb.Calib.mix =
  match (name, kind) with
  | "oltp", "write_txn" -> [ (Io, 0.35); (Cpu, 0.55); (Wake, 0.1) ]
  | "oltp", "op" -> [ (Io, 1.) ]
  | "oltp", "get" -> [ (Wake, 1.) ]
  | "views", "scan" -> [ (Loop, 1.) ]
  | _ -> [ (Cpu, 1.) ]

(* Latency quantile [q] of an op kind, in ns at reference speed.
   Medians are read per window like every gated figure
   ([Pb.windowed_pct]); the tails (p90, p99) are pooled over the
   phase, since a window holds too few samples for them. *)
let quantile name phase lat kind q =
  let s = Pb.Kinds.find lat kind and m = mix_of name kind in
  if q = 0.5 then Pb.windowed_pct phase m s q else Pb.pooled_pct phase m s q

(* The figures the workload description names, per op kind, then the
   kernels' raw median times. *)
let human_figures name phase lat ~attempted ~failed ~commits =
  let p kind q scale = quantile name phase lat kind q /. scale in
  let kernels =
    List.filter_map
      (fun (k, n) ->
        let s = Pb.Calib.samples phase.Pb.calib k in
        if Pb.Samples.count s = 0 then None
        else Some ("kernel." ^ n ^ "_us.p50", "us", Pb.Calib.typical s /. 1e3))
      [ (Pb.Calib.Cpu, "cpu"); (Loop, "loop"); (Io, "io"); (Wake, "wake") ]
  in
  (("error_rate", "ratio", float_of_int failed /. float_of_int (max 1 attempted))
  ::
  (match name with
  | "oltp" ->
      [ ("commits_per_s", "1/s",
          float_of_int commits /. Pb.seconds phase /. Pb.Calib.scale (mix_of name "op") phase.calib);
        ("get_us.p50", "us", p "get" 0.5 1e3); ("get_us.p99", "us", p "get" 0.99 1e3);
        ("write_txn_us.p50", "us", p "write_txn" 0.5 1e3);
        ("write_txn_us.p99", "us", p "write_txn" 0.99 1e3) ]
  | "query" ->
      [ ("point_select_us.p50", "us", p "point_select" 0.5 1e3);
        ("point_select_us.p99", "us", p "point_select" 0.99 1e3);
        ("scan_ms.p50", "ms", p "scan" 0.5 1e6);
        ("call_ms.p50", "ms", p "call" 0.5 1e6); ("call_ms.p90", "ms", p "call" 0.9 1e6);
        ("typecheck_us.p50", "us", p "typecheck" 0.5 1e3);
        ("define_ms.p50", "ms", p "define" 0.5 1e6) ]
  | "derive" ->
      [ ("define_ms.p50", "ms", p "define" 0.5 1e6); ("typecheck_us.p50", "us", p "typecheck" 0.5 1e3) ]
  | _ -> [ ("scan_ms.p50", "ms", p "scan" 0.5 1e6); ("refresh_ms.p50", "ms", p "refresh" 0.5 1e6) ]))
  @ kernels

(* The gated metrics.  [primary_ms.p50] and [secondary_ms.p50] are the
   p50 figures of the workload's two defining op kinds (see [roles]),
   by the same estimator as [human_figures]. *)
let e2e_metrics name phase lat ~setup_s =
  let primary, secondary = roles name in
  [ ("setup_s", "s", setup_s);
    ("ops_per_s", "1/s", Pb.windowed_rate phase (mix_of name "op") (Pb.Kinds.find lat "op"));
    ("primary_ms.p50", "ms", quantile name phase lat primary 0.5 /. 1e6);
    ("secondary_ms.p50", "ms", quantile name phase lat secondary 0.5 /. 1e6) ]

let ops_of lat = List.sort compare (Hashtbl.fold (fun k s acc -> (k, s) :: acc) lat [])

(* Untraced: the real [odb serve] process.  Set-up (launch on the
   prepared directory until the sessions can run their first op) is
   repeated (see [enough_setups]). *)
let run_served ~odb name ~seed ~seconds =
  let dir, rows, schema_src = prepare_store name ~seed in
  let wl = served_workload name ~seed rows in
  let sock = Filename.concat Pb.work_dir "odb.sock" in
  let addr = Unix.ADDR_UNIX sock in
  let launch () =
    Pb.time_ns (fun () ->
        let srv = Pb.spawn_server ~odb ~dir ~sock in
        (srv, Served.connect_all addr ~seed wl))
  in
  let rec setup acc =
    let (srv, conns), dt = launch () in
    if enough_setups (dt :: acc) then (srv, conns, dt :: acc)
    else begin
      Served.close_all conns;
      Pb.kill_server srv;
      setup (dt :: acc)
    end
  in
  let srv, conns, times = setup [] in
  ignore (Served.run_phase wl conns ~seconds:(warmup seconds));
  List.iter Served.reset conns;
  let phase = Served.run_phase wl conns ~seconds in
  let tally = Pb.tally () and lat = Pb.Kinds.create () in
  List.iter
    (fun (c : Served.conn) ->
      Pb.merge_tally ~into:tally c.tally;
      Pb.Kinds.merge ~into:lat c.lat)
    conns;
  let commits = List.fold_left (fun a (c : Served.conn) -> a + c.commits) 0 conns in
  Served.close_all conns;
  (* a crash, then recovery: every acknowledged commit must be there *)
  Pb.kill_server srv;
  if name = "oltp" then begin
    let o = Tdp_txn.Mvcc.open_dir ~load_schema:F.load_schema ~sync:false ~schema:(F.load_schema schema_src) dir in
    wl.after o.Tdp_txn.Mvcc.store tally;
    Tdp_txn.Mvcc.close o.Tdp_txn.Mvcc.store
  end;
  let setup_s, wall = setup_figures phase times in
  { tally;
    metrics = e2e_metrics name phase lat ~setup_s;
    ops = ops_of lat;
    human = human_figures name phase lat ~attempted:tally.attempted ~failed:tally.failed ~commits @ [ wall ] }

(* Untraced embedded: set-up is building the store and the view. *)
let run_views ~seed ~seconds =
  let rows = F.gen_rows ~seed (rows_of "views") in
  let rec setup acc =
    (* each build starts from a compacted heap, so none inherits
       the previous one's garbage or heap growth *)
    Gc.compact ();
    let t, dt = Pb.time_ns (fun () -> Views.setup ~seed rows) in
    if enough_setups ~at_least:9 (dt :: acc) then (t, dt :: acc) else setup (dt :: acc)
  in
  let t, times = setup [] in
  (* and the measured phase from a compacted heap too *)
  Gc.compact ();
  ignore (Views.run_phase t ~seconds:(warmup seconds));
  Views.reset t;
  let phase = Views.run_phase t ~seconds in
  let setup_s, wall = setup_figures phase times in
  let attempted = t.tally.attempted in
  { tally = t.tally;
    metrics = e2e_metrics "views" phase t.lat ~setup_s;
    ops = ops_of t.lat;
    human = human_figures "views" phase t.lat ~attempted ~failed:t.tally.failed ~commits:0 @ [ wall ] }

(* The untraced and the traced phase get half of [seconds] each, so a
   traced run takes as long as an untraced one. *)
let run_traced name ~seed ~seconds =
  let warmup = warmup seconds and seconds = seconds /. 2. in
  let r =
    if name = "views" then Traced.views ~seed ~seconds ~warmup (F.gen_rows ~seed (rows_of name))
    else begin
      let dir, rows, schema_src = prepare_store name ~seed in
      let wl = served_workload name ~seed rows in
      Traced.served ~wl ~seed ~seconds ~warmup ~dir ~schema:(F.load_schema schema_src)
    end
  in
  { tally = r.tally;
    metrics =
      List.map
        (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n r.values)))
        Traced.per_layer;
    ops = [];
    human = [] }

let run ~odb name ~seed ~seconds ~trace =
  Pb.fresh_work_dir ();
  Fun.protect ~finally:(fun () -> Pb.Calib.stop (); Pb.rm_rf Pb.work_dir) (fun () ->
      if trace then run_traced name ~seed ~seconds
      else if name = "views" then run_views ~seed ~seconds
      else run_served ~odb name ~seed ~seconds)

(* ---- output -------------------------------------------------------------------- *)

let num v = if Float.is_finite v then J.Float v else J.Int 0

let result_json ?(prefix = "") (o : outcome) =
  J.Obj
    [ ("correct", J.Bool (o.tally.wrong = 0));
      ("attempted", J.Int o.tally.attempted);
      ("failed", J.Int o.tally.failed);
      ("metrics",
        J.Obj
          (List.map
             (fun (n, u, v) -> (prefix ^ n, J.Obj [ ("value", num v); ("unit", J.String u) ]))
             o.metrics)) ]

let print_block name ~seed (o : outcome) =
  Printf.printf "== %s (seed %d): %d ops attempted, %d failed, %d wrong answers\n" name seed
    o.tally.attempted o.tally.failed o.tally.wrong;
  List.iter (fun n -> Printf.printf "   failure: %s\n" n) (List.rev o.tally.notes);
  List.iter (fun (k, s) -> Printf.printf "   %-14s %8d samples\n" k (Pb.Samples.count s)) o.ops;
  List.iter (fun (n, u, v) -> Printf.printf "   %-34s %14.4f %s\n" n v u) (o.human @ o.metrics);
  flush stdout

let report_json ~workload ~seed ~seconds ~trace (o : outcome) =
  J.Obj
    [ ("config", J.Obj (config ~workload ~seconds ~trace));
      ("provenance", J.Obj (provenance ~seed));
      ("result", result_json o);
      ("figures",
        J.Obj (List.map (fun (n, u, v) -> (n, J.Obj [ ("value", num v); ("unit", J.String u) ])) o.human));
      ("ops",
        J.Obj
          (List.map
             (fun (k, s) ->
               (k,
                 J.Obj
                   [ ("count", J.Int (Pb.Samples.count s));
                     ("p50_ns", num (Pb.Samples.pct s 0.5));
                     ("p90_ns", num (Pb.Samples.pct s 0.9));
                     ("p99_ns", num (Pb.Samples.pct s 0.99)) ]))
             o.ops)) ]

(* [--compare A B]: per-metric change from A to B, refused when the
   two runs were not configured alike. *)
let compare_reports a b =
  let load f =
    match J.parse (Pb.read_file f) with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: %s" f e)
  in
  let a = load a and b = load b in
  let field k j = Option.value ~default:J.Null (J.member k j) in
  let ca = field "config" a and cb = field "config" b in
  if J.to_string ca <> J.to_string cb then begin
    Printf.eprintf "perfbench: refusing to compare: configs differ\n  %s\n  %s\n" (J.to_string ca)
      (J.to_string cb);
    exit 2
  end;
  let metrics j = match field "metrics" (field "result" j) with J.Obj l -> l | _ -> [] in
  let value m = Option.value ~default:nan (Option.bind (J.member "value" m) J.to_float) in
  List.iter
    (fun (n, ma) ->
      let va = value ma in
      match List.assoc_opt n (metrics b) with
      | Some mb ->
          let vb = value mb in
          Printf.printf "%-34s %14.4f %14.4f %+8.1f%%\n" n va vb (100. *. (vb -. va) /. va)
      | None -> Printf.printf "%-34s %14.4f %14s\n" n va "-")
    (metrics a);
  exit 0

(* ---- command line ----------------------------------------------------------------- *)

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--odb PATH] [--report FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let odb = ref "" and report = ref "" and compare = ref [] in
  let spec =
    [ ("--workload", Arg.Set_string workload, " oltp | query | derive | views | all");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds per phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--odb", Arg.Set_string odb, " the odb binary to serve with");
      ("--report", Arg.Set_string report, " also write a JSON report here");
      ("--compare", Arg.Tuple [ Arg.String (fun a -> compare := [ a ]);
                                Arg.String (fun b -> compare := !compare @ [ b ]) ],
        " A B: compare two reports") ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  (match !compare with [ a; b ] -> compare_reports a b | _ -> ());
  let names = if !workload = "all" then workloads else [ !workload ] in
  if not (List.for_all (fun n -> List.mem n workloads) names) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  if !odb = "" && !trace = 0 && List.exists (( <> ) "views") names then begin
    prerr_endline "perfbench: --odb PATH is needed for the served workloads";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 in
  let results =
    List.map
      (fun name ->
        let o = run ~odb:!odb name ~seed:!seed ~seconds:!seconds ~trace in
        print_block name ~seed:!seed o;
        if !report <> "" then
          Pb.write_file
            (if List.length names = 1 then !report else !report ^ "." ^ name)
            (J.to_string ~pretty:true (report_json ~workload:name ~seed:!seed ~seconds:!seconds ~trace o));
        (name, o))
      names
  in
  let last =
    match results with
    | [ (_, o) ] -> result_json o
    | _ ->
        let tally = Pb.tally () in
        List.iter (fun (_, (o : outcome)) -> Pb.merge_tally ~into:tally o.tally) results;
        J.Obj
          [ ("correct", J.Bool (tally.wrong = 0));
            ("attempted", J.Int tally.attempted);
            ("failed", J.Int tally.failed);
            ("metrics",
              J.Obj
                (List.concat_map
                   (fun (name, o) ->
                     match result_json ~prefix:(name ^ ".") o with
                     | J.Obj l -> (match List.assoc_opt "metrics" l with Some (J.Obj m) -> m | _ -> [])
                     | _ -> [])
                   results)) ]
  in
  print_endline (J.to_string last)
