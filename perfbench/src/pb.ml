(* Shared plumbing: the monotonic clock, latency samples, op tallies,
   child processes and the work directory. *)

(* Every sample is timed with the monotonic clock.  [Sys.time] is
   process CPU time and [Tdp_obs.Metrics.now_ns] reads the wall clock
   (it can jump); neither is fit for latencies. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

(* ---- samples -------------------------------------------------------- *)

(* Nearest-rank quantile [q] of [a], [q] in (0, 1]; 0 when [a] is
   empty.  Sorts [a]. *)
let rank a q =
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    Array.sort Float.compare a;
    a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
  end

(* Values with the clock reading at which each was recorded. *)
module Samples = struct
  type t = { mutable a : float array; mutable at : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; at = Array.make 256 0.; n = 0 }

  let grow a n =
    let b = Array.make (2 * n) 0. in
    Array.blit a 0 b 0 n;
    b

  let add_at t ~at v =
    if t.n = Array.length t.a then begin
      t.a <- grow t.a t.n;
      t.at <- grow t.at t.n
    end;
    t.a.(t.n) <- v;
    t.at.(t.n) <- at;
    t.n <- t.n + 1

  let add t v = add_at t ~at:(now_ns ()) v
  let count t = t.n
  let get t i = t.a.(i)
  let append ~into src = for i = 0 to src.n - 1 do add_at into ~at:src.at.(i) src.a.(i) done

  (* Events per second between the first and the last sample. *)
  let rate t =
    if t.n < 2 then 0.
    else begin
      let lo = ref infinity and hi = ref neg_infinity in
      for i = 0 to t.n - 1 do
        lo := Float.min !lo t.at.(i);
        hi := Float.max !hi t.at.(i)
      done;
      if !hi > !lo then float_of_int (t.n - 1) /. ((!hi -. !lo) /. 1e9) else 0.
    end

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  (* Nearest-rank percentile (see [rank]). *)
  let pct t q = rank (Array.sub t.a 0 t.n) q

  (* The samples recorded in each of [windows] equal slices of
     [t0, t1). *)
  let slices t ~t0 ~t1 ~windows =
    let w = Array.init windows (fun _ -> create ()) in
    let len = (t1 -. t0) /. float_of_int windows in
    for i = 0 to t.n - 1 do
      let k = int_of_float ((t.at.(i) -. t0) /. len) in
      if k >= 0 && k < windows then add_at w.(k) ~at:t.at.(i) t.a.(i)
    done;
    Array.to_list w
end

let quantile l q = rank (Array.of_list l) q

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Samples keyed by op kind. *)
module Kinds = struct
  type t = (string, Samples.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let find t k =
    match Hashtbl.find_opt t k with
    | Some s -> s
    | None ->
        let s = Samples.create () in
        Hashtbl.replace t k s;
        s

  let add t k v = Samples.add (find t k) v
  let add_at t k ~at v = Samples.add_at (find t k) ~at v
  let merge ~into t = Hashtbl.iter (fun k s -> Samples.append ~into:(find into k) s) t
  let pct t k q = match Hashtbl.find_opt t k with Some s -> Samples.pct s q | None -> 0.
  let count t k = match Hashtbl.find_opt t k with Some s -> Samples.count s | None -> 0
end

(* ---- op accounting -------------------------------------------------- *)

(* [failed] counts every op that did not succeed: an [err], a
   [conflict], a dropped connection or a wrong answer.  [wrong] counts
   the wrong answers alone; any makes the run incorrect. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable notes : string list;  (* the first few failures, for stderr *)
}

let tally () = { attempted = 0; failed = 0; wrong = 0; notes = [] }

let note t msg =
  let one_line = String.map (fun c -> if c = '\n' then ' ' else c) msg in
  if List.length t.notes < 5 then t.notes <- one_line :: t.notes
let fail t msg = t.failed <- t.failed + 1; note t msg

let wrong t msg =
  t.wrong <- t.wrong + 1;
  fail t ("wrong answer: " ^ msg)

let merge_tally ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.wrong <- into.wrong + t.wrong;
  List.iter (note into) (List.rev t.notes)

(* ---- files ----------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Scratch state of one run, relative to the checkout root (short
   enough for a Unix socket path). *)
let work_dir = ".perfbench_run"

let fresh_work_dir () =
  rm_rf work_dir;
  Unix.mkdir work_dir 0o755

(* ---- host speed ------------------------------------------------------ *)

(* The benchmark runs on a few cores of a shared host whose speed
   drifts, up to 2x within minutes, with the load of its other tenants.
   So a phase interleaves reference kernels with its ops, and reads
   every time figure against the kernels timed in the same window: the
   figure is scaled by a kernel's reference time over its median there,
   i.e. reported at the host speed at which the kernel takes its
   reference time.  A figure whose time goes to several resources is
   read against their kernels, weighted by its shares ([mix]).  The
   kernels are the benchmark's own code, never the program's, so a
   change to the program moves a scaled figure as it moves the raw one.
   There is one kernel per resource an op can wait on:
   - [Cpu]: computation as the program's layers do it: allocate, hash,
     sort and chase pointers through a few MB;
   - [Loop]: a tight loop of closure calls over a float column, keeping
     the few rows that pass, as [Pred.scan] runs it;
   - [Io]: append 200 bytes to a file in the work directory and fsync it;
   - [Wake]: a one-byte round trip over a socket pair to a thread that
     echoes it, i.e. two wake-ups, as a request to a server makes. *)
module Calib = struct
  type kernel = Cpu | Loop | Io | Wake

  let ref_ns = function Cpu -> 4e6 | Loop -> 1e6 | Io -> 1e5 | Wake -> 2e4

  type t = { cpu : Samples.t; loop : Samples.t; io : Samples.t; wake : Samples.t }

  let create () =
    { cpu = Samples.create (); loop = Samples.create (); io = Samples.create (); wake = Samples.create () }

  let samples t = function Cpu -> t.cpu | Loop -> t.loop | Io -> t.io | Wake -> t.wake

  let table = Array.make (1 lsl 18) 0

  let cpu_kernel () =
    let x = ref 0x2545f491 in
    let next () =
      x := (!x * 1103515245 + 12345) land 0x3fffffff;
      !x
    in
    let h = Hashtbl.create 16 in
    for i = 0 to 5_000 do
      Hashtbl.replace h (next () land 0xffff) (string_of_int i)
    done;
    let acc = ref 0 in
    for _ = 1 to 60_000 do
      let j = next () land (Array.length table - 1) in
      table.(j) <- table.(j) + 1;
      acc := !acc + table.((j * 7) land (Array.length table - 1))
    done;
    let l = List.init 2_000 (fun _ -> string_of_int (next ())) in
    ignore (Sys.opaque_identity (Hashtbl.length h + !acc + List.length (List.sort compare l)))

  let live = Bytes.make (1 lsl 17) '\001'
  let column = Array.init (1 lsl 17) (fun i -> float_of_int ((i * 7919) land 1023))

  let loop_kernel () =
    let test = Sys.opaque_identity (fun i -> Array.unsafe_get column i < 10.) in
    for _ = 1 to 4 do
      let out = ref [] in
      for i = 0 to Array.length column - 1 do
        if Bytes.unsafe_get live i <> '\000' && test i then out := i :: !out
      done;
      ignore (Sys.opaque_identity (List.rev !out))
    done

  (* The kernels' file and echo thread, made on first use. *)
  let io_fd = ref None
  let echo = ref None
  let io_line = Bytes.make 200 'x'

  let io_kernel () =
    let fd =
      match !io_fd with
      | Some fd -> fd
      | None ->
          let fd =
            Unix.openfile (Filename.concat work_dir "calib.io")
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
          in
          io_fd := Some fd;
          fd
    in
    ignore (Unix.write fd io_line 0 (Bytes.length io_line));
    Unix.fsync fd

  let wake_kernel () =
    let a =
      match !echo with
      | Some (a, _) -> a
      | None ->
          let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let buf = Bytes.create 1 in
          let rec serve () =
            if Unix.read b buf 0 1 = 1 then begin
              ignore (Unix.write b buf 0 1);
              serve ()
            end
          in
          let th = Thread.create (fun () -> (try serve () with Unix.Unix_error _ -> ()); Unix.close b) () in
          echo := Some (a, th);
          a
    in
    let buf = Bytes.make 1 'p' in
    if Unix.write a buf 0 1 <> 1 || Unix.read a buf 0 1 <> 1 then failwith "calibration echo failed"

  (* Close the kernels' file and end the echo thread, before the work
     directory goes. *)
  let stop () =
    Option.iter Unix.close !io_fd;
    io_fd := None;
    Option.iter (fun (a, th) -> Unix.close a; Thread.join th) !echo;
    echo := None

  let run t k ~n =
    let f = match k with Cpu -> cpu_kernel | Loop -> loop_kernel | Io -> io_kernel | Wake -> wake_kernel in
    for _ = 1 to n do
      let t0 = now_ns () in
      f ();
      Samples.add (samples t k) (now_ns () -. t0)
    done

  (* Between two slices of a served phase, with every connection idle. *)
  let pause t =
    run t Cpu ~n:3;
    run t Io ~n:8;
    run t Wake ~n:16

  (* A kernel's median time in [s].  A median, not a mean, so a run
     that catches one of the host's stalls counts no more than one
     that does not: an op's p50 does not grow with stalls that only a
     few ops catch either. *)
  let typical s = Samples.pct s 0.5

  (* The kernels a figure is read against, each with the share of its
     time that goes to that kernel's resource. *)
  type mix = (kernel * float) list

  (* Reference time over measured time for a figure of mix [m], from
     the kernel runs in [t]: the inverse of the mix's weighted
     slow-down.  A kernel with no runs in [t] counts as at reference
     speed. *)
  let scale (m : mix) t =
    let slowdown (k, w) =
      let s = samples t k in
      w *. if Samples.count s = 0 then 1. else typical s /. ref_ns k
    in
    1. /. List.fold_left (fun acc kw -> acc +. slowdown kw) 0. m
end

(* A measured phase, cut into windows.  Each figure is read per window
   and scaled by the window's times of the figure's kernels (see
   [Calib]).  The windows' values are combined by the quartile on the
   good side: the lower quartile of a time, the upper one of a rate.
   Scaling follows the host's speed, but not exactly: a slow spell of
   the host (seconds long) slows some ops more than the kernel, and
   such spells can cover most of a run.  The quartile reads the quieter
   quarter of the run, and moves, as every window does, with a change
   to the program.  Kinds too sparse for windows (fewer than [dense]
   samples per window on average) are pooled over the whole phase and
   scaled by the kernels' times over the whole phase. *)
type phase = { t0 : float; t1 : float; windows : int; calib : Calib.t }

let phase ~t0 ~t1 ~calib = { t0; t1; windows = 10; calib }
let seconds ph = (ph.t1 -. ph.t0) /. 1e9
let dense = 20
let sparse ph s = Samples.count s < dense * ph.windows
let slices ph s = Samples.slices s ~t0:ph.t0 ~t1:ph.t1 ~windows:ph.windows

(* The kernel runs of each window.  A kernel with no runs in a window
   takes its runs over the whole phase. *)
let window_calibs ph =
  let per k =
    let whole = Calib.samples ph.calib k in
    List.map (fun w -> if Samples.count w = 0 then whole else w) (slices ph whole) |> Array.of_list
  in
  let cpu = per Cpu and loop = per Loop and io = per Io and wake = per Wake in
  List.init ph.windows (fun i -> { Calib.cpu = cpu.(i); loop = loop.(i); io = io.(i); wake = wake.(i) })

(* [read w] of each window's samples, scaled by [apply] with that
   window's scale for mix [m], and combined by the nearest-rank
   quantile [q] of the windows' values.  Pooled when [s] is sparse. *)
let windowed ph m s ~q read apply =
  if sparse ph s then apply (read s) (Calib.scale m ph.calib)
  else
    let values =
      List.combine (slices ph s) (window_calibs ph)
      |> List.filter_map (fun (w, c) ->
             if Samples.count w = 0 then None else Some (apply (read w) (Calib.scale m c)))
    in
    quantile values q

let windowed_pct ph m s q = windowed ph m s ~q:0.25 (fun w -> Samples.pct w q) ( *. )

(* Events per second.  A rate is taken between the first and the last
   event, not over the window's length, so it is not rounded to a whole
   number of events per window. *)
let windowed_rate ph m s = windowed ph m s ~q:0.75 Samples.rate ( /. )

(* A quantile pooled over the phase, scaled by the whole phase's kernel
   time. *)
let pooled_pct ph m s q = Samples.pct s q *. Calib.scale m ph.calib

(* ---- child processes ------------------------------------------------- *)

let children : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () = at_exit (fun () -> List.iter reap !children)

(* Output of a short helper command, [None] when it fails. *)
let command_output prog args =
  try
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid = Unix.create_process prog (Array.of_list (prog :: args)) null w null in
    Unix.close w;
    Unix.close null;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ -> None

(* A served store: [odb serve DIR --socket SOCK] as a child process,
   ready once it prints its readiness line. *)
type server = { pid : int; out : in_channel }

let spawn_server ~odb ~dir ~sock =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process odb [| odb; "serve"; dir; "--socket"; sock |] null w Unix.stderr
  in
  children := pid :: !children;
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  (match Unix.select [ r ] [] [] 120. with
  | [], _, _ -> reap pid; failwith "odb serve: no readiness line within 120 s"
  | _ -> (
      match input_line out with
      | _ -> ()
      | exception End_of_file -> reap pid; failwith "odb serve exited before it was ready"));
  { pid; out }

let kill_server s =
  reap s.pid;
  close_in_noerr s.out
