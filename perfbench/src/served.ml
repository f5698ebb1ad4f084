(* The served workloads: closed-loop clients over the line protocol,
   one process, one thread per connection.  Each op validates its
   response against a model of what the store must answer. *)

open Tdp_core
module Server = Tdp_txn.Server
module Mvcc = Tdp_txn.Mvcc
module F = Fixtures

exception Dropped of string

(* One client connection and everything it measures. *)
type conn = {
  id : int;
  rng : Random.State.t;
  client : Server.client;
  mutable lat : Pb.Kinds.t;  (* per op kind, ns *)
  mutable tally : Pb.tally;
  mutable commits : int;
  mutable user_bytes : int;  (* payload bytes of committed sets *)
  (* traced phase only: every request, in order, with its kind *)
  mutable traced : bool;
  req_ns : Pb.Samples.t;
  mutable req_kinds : string list;  (* newest first *)
  mutable inputs : (string * string) list;  (* (op kind, input), newest first *)
  mutable n_ops : int;  (* ops run while traced; every [probe_every]th is followed by a ping *)
}

let reset c =
  c.lat <- Pb.Kinds.create ();
  c.tally <- Pb.tally ();
  c.commits <- 0;
  c.user_bytes <- 0

let request c kind line =
  let t0 = Pb.now_ns () in
  let r =
    try Server.request c.client line with
    | End_of_file -> raise (Dropped "server hung up")
    | Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))
    | Sys_error m -> raise (Dropped m)
  in
  let dt = Pb.now_ns () -. t0 in
  if c.traced then begin
    Pb.Samples.add c.req_ns dt;
    c.req_kinds <- kind :: c.req_kinds
  end;
  r

let log_input c kind input = if c.traced then c.inputs <- (kind, input) :: c.inputs

(* [ok "<text>"] / [err "<text>"] payload of an [eval] response. *)
let eval_payload r =
  try Ok (Scanf.sscanf r "ok %S%!" Fun.id)
  with _ -> ( try Error (Scanf.sscanf r "err %S%!" Fun.id) with _ -> Error r)

let eval c kind src = request c kind (Printf.sprintf "eval %S" src)
let prefixed p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* OIDs of an [:extent] rendering: "extent: N" then one "#oid {…}" line
   per row. *)
let extent_oids text =
  match String.split_on_char '\n' text with
  | first :: rows when prefixed "extent: " first -> (
      let n = int_of_string_opt (String.sub first 8 (String.length first - 8)) in
      match List.map (fun l -> Scanf.sscanf l "#%d " Fun.id) rows with
      | oids when n = Some (List.length oids) -> Some oids
      | _ -> None
      | exception _ -> None)
  | _ -> None

(* A timed op: [f] returns [Ok ()] or [Error (`Failed | `Wrong, why)];
   only successful ops are latency samples. *)
let timed_op c kind f =
  c.tally.attempted <- c.tally.attempted + 1;
  let t0 = Pb.now_ns () in
  let r = f () in
  let t1 = Pb.now_ns () in
  Pb.Kinds.add_at c.lat "op" ~at:t1 0.;
  match r with
  | Ok () -> Pb.Kinds.add_at c.lat kind ~at:t1 (t1 -. t0)
  | Error (`Failed, why) -> Pb.fail c.tally (kind ^ ": " ^ why)
  | Error (`Wrong, why) -> Pb.wrong c.tally (kind ^ ": " ^ why)

(* ---- workload definitions -------------------------------------------- *)

type workload = {
  conns : int;
  preamble : string list;  (* eval sources each session runs before its ops *)
  op : conn -> unit;
  after : Mvcc.t -> Pb.tally -> unit;  (* checks on the recovered store, oltp only *)
}

(* -- oltp ---------------------------------------------------------------

   Why: durable served writes beside point reads on one store.  Loads
   the Server wire, Mvcc.commit and the Txn_log/Wal append + fsync
   (fsync per commit, the served default); two writers let group
   commit show.  100k rows put any O(n) step on the write path in
   plain view.  Bypasses Session, Infer, Interp and the projection
   algorithms.  Mix: 50% [get #K pay_rate], 50% [begin] / [set #K
   pay_rate=V] / [commit].  A read draws K uniformly from all rows; a
   write draws it uniformly from its connection's half (K mod 2 = the
   connection's id), so the two writers never conflict and every op
   can succeed. *)

(* Reads race the other connection's writes, so a read may return the
   value acknowledged last before it was sent, or any value whose write
   was in flight while it ran. *)
module Oltp_model = struct
  type w = { cents : int; start : int; mutable fin : int }

  type t = {
    m : Mutex.t;
    mutable tick : int;
    cur : int array;  (* acknowledged value with the highest version *)
    cur_ver : int array;
    recent : (int, w list) Hashtbl.t;  (* per key, newest first *)
  }

  let create (rows : F.rows) =
    { m = Mutex.create (); tick = 0; cur = Array.copy rows.cents;
      cur_ver = Array.make rows.n 0; recent = Hashtbl.create 4096 }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let next t = t.tick <- t.tick + 1; t.tick
  let recent t k = Option.value ~default:[] (Hashtbl.find_opt t.recent k)

  let start_write t k cents =
    locked t (fun () ->
        let w = { cents; start = next t; fin = max_int } in
        Hashtbl.replace t.recent k (List.filteri (fun i _ -> i < 8) (w :: recent t k));
        w)

  let finish_write t k w ~version =
    locked t (fun () ->
        w.fin <- next t;
        match version with
        | Some v when v > t.cur_ver.(k - 1) ->
            t.cur.(k - 1) <- w.cents;
            t.cur_ver.(k - 1) <- v
        | _ -> ())

  let read_begin t k = locked t (fun () -> (next t, t.cur.(k - 1)))

  let read_ok t k ~t0 ~cur0 answer =
    locked t (fun () ->
        let t1 = next t in
        F.rate_str cur0 = answer
        || List.exists
             (fun w -> F.rate_str w.cents = answer && w.start <= t1 && w.fin >= t0)
             (recent t k))
end

let oltp (rows : F.rows) =
  let model = Oltp_model.create rows in
  let get c =
    let k = 1 + Random.State.int c.rng rows.n in
    log_input c "get" (string_of_int k);
    timed_op c "get" (fun () ->
        let t0, cur0 = Oltp_model.read_begin model k in
        let r = request c "get" (Printf.sprintf "get #%d pay_rate" k) in
        match Scanf.sscanf r "ok %s%!" Fun.id with
        | v when Oltp_model.read_ok model k ~t0 ~cur0 v -> Ok ()
        | v -> Error (`Wrong, Printf.sprintf "#%d pay_rate = %s" k v)
        | exception _ -> Error (`Failed, r))
  in
  let write c =
    let k = (2 * Random.State.int c.rng (rows.n / 2)) + 1 + (c.id land 1) in
    let cents = F.random_cents c.rng in
    let set = Printf.sprintf "#%d pay_rate=%s" k (F.rate_str cents) in
    log_input c "set" set;
    timed_op c "write_txn" (fun () ->
        let w = Oltp_model.start_write model k cents in
        let abort why =
          Oltp_model.finish_write model k w ~version:None;
          ignore (request c "abort" "abort");
          Error (`Failed, why)
        in
        let r = request c "begin" "begin" in
        if not (prefixed "ok txn " r) then abort r
        else
          let r = request c "set" ("set " ^ set) in
          if r <> "ok" then abort r
          else
            let r = request c "commit" "commit" in
            match Scanf.sscanf r "ok committed %d%!" Fun.id with
            | v ->
                Oltp_model.finish_write model k w ~version:(Some v);
                c.commits <- c.commits + 1;
                c.user_bytes <- c.user_bytes + String.length set;
                Ok ()
            | exception _ ->
                (* a conflict aborts the transaction server-side *)
                Oltp_model.finish_write model k w ~version:None;
                Error (`Failed, r))
  in
  (* Durability spot-check: after SIGKILL, every acknowledged commit
     must be in the recovered store. *)
  let after store tally =
    let head = Mvcc.head store ~branch:Mvcc.main_branch in
    Array.iteri
      (fun i ver ->
        if ver > 0 then begin
          let got =
            try F.value_str (Mvcc.get_attr head (Tdp_store.Oid.of_int (i + 1)) (F.at "pay_rate"))
            with _ -> "<missing>"
          in
          if got <> F.rate_str model.cur.(i) then
            Pb.wrong tally
              (Printf.sprintf "acknowledged commit %d lost: #%d pay_rate = %s, expected %s" ver
                 (i + 1) got (F.rate_str model.cur.(i)))
        end)
      model.cur_ver
  in
  { conns = 2; preamble = []; op = (fun c -> if Random.State.bool c.rng then get c else write c); after }

(* -- query --------------------------------------------------------------

   Why: the served read path of the statement language.  Loads
   Session/Stmt/Infer, Mvcc snapshot reads, and the whole-snapshot
   Mvcc.to_database + Interp.call behind every served [call].  The txn
   log stays idle.  10k rows: a served call costs O(n) today, ~0.5 s at
   100k.  Mix: 35% [:type] of a project/select pipeline, 35% point
   select on ssn, 20% a ~1% range select over EmpView, 5% [call age],
   5% [define view P = project T on [attrs]; drop view P;] over a
   projection of Employee or Person.  The defines put the paper's
   derivation path (Catalog -> Projection -> Applicability ->
   Invariants, Schema_index) on a gated workload; [derive] drives it
   on a larger schema. *)

(* An [eval] op whose response text must be exactly [expected]. *)
let exact c kind src expected =
  log_input c kind src;
  timed_op c kind (fun () ->
      match eval_payload (eval c ("eval:" ^ kind) src) with
      | Ok text when text = expected -> Ok ()
      | Ok text -> Error (`Wrong, Printf.sprintf "%s -> %S" src text)
      | Error e -> Error (`Failed, e))

let typecheck pool c =
  let src, expected = pool.(Random.State.int c.rng (Array.length pool)) in
  exact c "typecheck" src expected

(* A [define view ...; drop view ...;] op of projection [t] on
   [attrs]; [ok] checks the rendering the server sent back.  A TDP052
   refusal is a failed op (inputs are never filtered), any other
   refusal a wrong answer. *)
let define c src ~t ~attrs ok =
  log_input c "define" src;
  log_input c "projection" (F.projection_input t attrs);
  timed_op c "define" (fun () ->
      match eval_payload (eval c "eval:define" src) with
      | Ok text when ok text -> Ok ()
      | Ok text -> Error (`Wrong, Printf.sprintf "%s -> %S" src text)
      | Error e -> Error ((if Pb.contains e "TDP052" then `Failed else `Wrong), e))

let query (rows : F.rows) ~seed =
  let pool =
    F.typecheck_pool ~schema_src:F.employee_src ~preamble:[ F.emp_view ]
      (F.employee_pipelines ~seed 64)
  in
  let defines =
    let srcs =
      List.map
        (fun (t, attrs) ->
          Printf.sprintf "define view P = project %s on [%s]; drop view P;" t (F.attrs_str attrs))
        F.fig1_projections
    in
    Array.of_list
      (List.map2
         (fun (t, attrs) (src, expected) -> (t, attrs, src, expected))
         F.fig1_projections
         (F.renderings ~schema_src:F.employee_src ~preamble:[ F.emp_view ] srcs))
  in
  let select c kind src expected =
    log_input c kind src;
    timed_op c kind (fun () ->
        match eval_payload (eval c ("eval:" ^ kind) src) with
        | Ok text -> (
            match extent_oids text with
            | Some oids when oids = expected -> Ok ()
            | _ -> Error (`Wrong, Printf.sprintf "%s -> %S" src text))
        | Error e -> Error (`Failed, e))
  in
  let point c =
    let k = 1 + Random.State.int c.rng rows.n in
    log_input c "key" (string_of_int k);
    select c "point_select" (Printf.sprintf ":extent select Employee where ssn == %d" k) [ k ]
  in
  let range c =
    let x = F.low_threshold c.rng in
    let expected = F.rows_below rows.cents x in
    select c "scan" (Printf.sprintf ":extent select EmpView where pay_rate < %s" (F.rate_str x)) expected
  in
  let call c =
    let k = 1 + Random.State.int c.rng rows.n in
    log_input c "call_key" (string_of_int k);
    exact c "call"
      (Printf.sprintf "call age on select Employee where ssn == %d;" k)
      (Printf.sprintf "age(#%d) = %d" k (F.interp_now - rows.born.(k - 1)))
  in
  let define_view c =
    let t, attrs, src, expected = defines.(Random.State.int c.rng (Array.length defines)) in
    define c src ~t ~attrs (fun text -> Ok text = expected)
  in
  let op c =
    let r = Random.State.float c.rng 1. in
    if r < 0.35 then typecheck pool c
    else if r < 0.70 then point c
    else if r < 0.90 then range c
    else if r < 0.95 then call c
    else define_view c
  in
  { conns = 2; preamble = [ F.emp_view ]; op; after = (fun _ _ -> ()) }

(* -- derive -------------------------------------------------------------

   Why: the paper's type derivation behind [define view]: Catalog ->
   Projection (IsApplicable, FactorState, FactorMethods, Augment) ->
   Invariants, over a compiled Schema_index, on a 50-type synthetic
   schema.  Bypasses stored data, the txn log and Interp.  Mix: 50%
   [define view Vi = project T on [attrs]; drop view Vi;] with (T,
   attrs) from Synth.gen_projection, 50% [:type] pipelines.  A define
   refused with TDP052 is a failed op; the inputs are not filtered. *)

let derive schema ~seed =
  let pool =
    F.typecheck_pool ~schema_src:(F.synth_src ()) ~preamble:[]
      (F.synth_pipelines schema ~seed 64)
  in
  let next = ref 0 in
  let define_view c =
    incr next;
    let i = !next in
    let t, attrs = Tdp_synth.Synth.gen_projection ~seed:((seed * 1_000_003) + i) schema in
    let t = Type_name.to_string t and attrs = List.map Attr_name.to_string attrs in
    let src =
      Printf.sprintf "define view V%d = project %s on [%s]; drop view V%d;" i t (F.attrs_str attrs) i
    in
    define c src ~t ~attrs (String.ends_with ~suffix:(Printf.sprintf "dropped view V%d" i))
  in
  { conns = 1; preamble = [];
    op = (fun c -> if Random.State.bool c.rng then define_view c else typecheck pool c);
    after = (fun _ _ -> ()) }

(* ---- driving connections ---------------------------------------------- *)

let connect addr ~seed ~id preamble =
  let client =
    try Server.connect addr with Unix.Unix_error (e, _, _) -> raise (Dropped (Unix.error_message e))
  in
  let c =
    { id; rng = Random.State.make [| seed; id; 0xc0 |]; client; lat = Pb.Kinds.create ();
      tally = Pb.tally (); commits = 0; user_bytes = 0; traced = false;
      req_ns = Pb.Samples.create (); req_kinds = []; inputs = []; n_ops = 0 }
  in
  List.iter
    (fun src ->
      match eval_payload (eval c "eval:preamble" src) with
      | Ok _ -> ()
      | Error e -> failwith ("session preamble failed: " ^ e))
    preamble;
  (* one round trip before the next connection: sessions are accepted
     in connection order *)
  if request c "ping" "ping" <> "ok pong" then failwith "ping failed";
  c

let connect_all addr ~seed wl = List.init wl.conns (fun id -> connect addr ~seed ~id wl.preamble)
let close_all conns = List.iter (fun c -> try Server.close_client c.client with _ -> ()) conns

(* While traced, every [probe_every]th op is followed by a [ping]: a
   request with no store work, whose round trip gives the traced run
   its own measure of the wire and of the server's per-request cost. *)
let probe_every = 8

let probe c =
  c.n_ops <- c.n_ops + 1;
  if c.n_ops mod probe_every = 0 then
    match request c "ping" "ping" with
    | "ok pong" -> ()
    | r -> raise (Dropped ("ping answered " ^ r))

(* Run every connection's closed loop for [seconds], in slices of
   [slice_s].  Between slices every connection is idle while the
   reference kernels run (see [Pb.Calib]).  A dropped connection is a
   failed op and ends that connection's loop. *)
let slice_s = 0.25

let run_phase wl conns ~seconds =
  let calib = Pb.Calib.create () in
  let t0 = Pb.now_ns () in
  let deadline = t0 +. (seconds *. 1e9) in
  let loop until (c, live) =
    try
      while Pb.now_ns () < until do
        wl.op c;
        if c.traced then probe c
      done
    with Dropped why ->
      Pb.fail c.tally ("dropped connection: " ^ why);
      live := false
  in
  let conns = List.map (fun c -> (c, ref true)) conns in
  while Pb.now_ns () < deadline && List.exists (fun (_, live) -> !live) conns do
    let until = Float.min deadline (Pb.now_ns () +. (slice_s *. 1e9)) in
    List.filter (fun (_, live) -> !live) conns
    |> List.map (Thread.create (loop until))
    |> List.iter Thread.join;
    Pb.Calib.pause calib
  done;
  Pb.phase ~t0 ~t1:deadline ~calib
