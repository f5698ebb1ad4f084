(* -- views ----------------------------------------------------------------

   Why: the embedded data plane.  The served path never touches
   Database/Columns/Pred/Matview (Mvcc keeps its own shadow store), so
   without this workload those layers go unmeasured.  A columnar
   Database of 100k Employees with a materialized view of the Figure 1
   projection, driven by one thread.  Each op: Database.set_attr on one
   random row, then Matview.refresh, then a ~1% Pred.scan (one per
   update, so a run holds enough scans for a steady median).
   Bypasses the server, Mvcc, the txn log and Session. *)

open Tdp_core
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Oid = Tdp_store.Oid
module Matview = Tdp_algebra.Matview
module Pred = Tdp_algebra.Pred
module View = Tdp_algebra.View
module F = Fixtures

type t = {
  db : Database.t;
  mv : Matview.t;
  cents : int array;  (* the model: current pay rate of row i+1 *)
  rng : Random.State.t;
  mutable lat : Pb.Kinds.t;
  mutable tally : Pb.tally;
  mutable scans : (int * int) list;  (* traced: (rows examined, results) *)
}

let setup ~seed (rows : F.rows) =
  let o = Tdp_paper.Fig1.project () in
  let db = Database.create o.schema in
  F.fill db rows;
  let mv =
    Matview.create db ~view_type:(F.ty "Employee_hat")
      (View.Project (View.Base (F.ty "Employee"), Tdp_paper.Fig1.projection))
  in
  { db; mv; cents = Array.copy rows.cents; rng = Random.State.make [| seed; 0x71e |];
    lat = Pb.Kinds.create (); tally = Pb.tally (); scans = [] }

let reset t =
  t.lat <- Pb.Kinds.create ();
  t.tally <- Pb.tally ();
  t.scans <- []

let pay = F.at "pay_rate"

(* One op: [f] returns [Ok ()] or [Error why] for a wrong answer; an
   exception is a failed op.  [f] records its own latency samples. *)
let attempt t kind f =
  t.tally.attempted <- t.tally.attempted + 1;
  let r = try f () with e -> Error (`Failed (Printexc.to_string e)) in
  Pb.Kinds.add t.lat "op" 0.;
  match r with
  | Ok () -> ()
  | Error (`Wrong why) -> Pb.wrong t.tally (kind ^ ": " ^ why)
  | Error (`Failed why) -> Pb.fail t.tally (kind ^ ": " ^ why)

(* Samples: "set_attr" and "refresh" time the two calls, "update" the
   pair; the check of the copy afterwards is not timed. *)
let update t =
  let k = 1 + Random.State.int t.rng (Array.length t.cents) in
  let cents = F.random_cents t.rng in
  attempt t "update" (fun () ->
      let t0 = Pb.now_ns () in
      Database.set_attr t.db (Oid.of_int k) pay (Value.Float (F.rate_of_cents cents));
      let t1 = Pb.now_ns () in
      ignore (Matview.refresh t.db t.mv);
      let t2 = Pb.now_ns () in
      Pb.Kinds.add_at t.lat "set_attr" ~at:t2 (t1 -. t0);
      Pb.Kinds.add_at t.lat "refresh" ~at:t2 (t2 -. t1);
      Pb.Kinds.add_at t.lat "update" ~at:t2 (t2 -. t0);
      t.cents.(k - 1) <- cents;
      match Oid.Map.find_opt (Oid.of_int k) (Matview.mapping t.mv) with
      | None -> Error (`Wrong (Printf.sprintf "#%d has no copy" k))
      | Some copy ->
          let got = F.value_str (Database.get_attr t.db copy pay) in
          if got = F.rate_str cents then Ok ()
          else
            Error (`Wrong (Printf.sprintf "copy of #%d has pay_rate %s, expected %s" k got
                             (F.rate_str cents))))

(* The "scan" sample times [Pred.scan] alone. *)
let scan ~traced t =
  let n = Array.length t.cents in
  let x = F.low_threshold t.rng in
  let expected = F.rows_below t.cents x in
  let pred = Pred.cmp pay Pred.Lt (Body.Float (F.rate_of_cents x)) in
  attempt t "scan" (fun () ->
      let oids, dt = Pb.time_ns (fun () -> Pred.scan t.db (F.ty "Employee") pred) in
      Pb.Kinds.add t.lat "scan" dt;
      let got = List.map Oid.to_int oids in
      if traced then t.scans <- (n, List.length got) :: t.scans;
      if got = expected then Ok ()
      else
        Error (`Wrong (Printf.sprintf "pay_rate < %s: %d rows, expected %d" (F.rate_str x)
                         (List.length got) (List.length expected))))

let op ~traced t =
  update t;
  scan ~traced t

(* After each op the [Cpu] and the [Loop] reference kernels run once
   (see [Pb.Calib]). *)
let run_phase ?(traced = false) t ~seconds =
  let calib = Pb.Calib.create () in
  let t0 = Pb.now_ns () in
  let deadline = t0 +. (seconds *. 1e9) in
  while Pb.now_ns () < deadline do
    op ~traced t;
    Pb.Calib.run calib Cpu ~n:1;
    Pb.Calib.run calib Loop ~n:1
  done;
  Pb.phase ~t0 ~t1:deadline ~calib
