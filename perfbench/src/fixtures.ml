(* Inputs: schemas, generated Employee rows, store directories and the
   statement pools with their expected answers.  Everything is a pure
   function of the seed. *)

open Tdp_core
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Oid = Tdp_store.Oid
module Dump = Tdp_store.Dump
module Session = Tdp_lang.Session

let ty = Type_name.of_string
let at = Attr_name.of_string

(* The paper's Figure 1 schema (types and methods; the session defines
   its views itself, since a store directory does not load them). *)
let employee_src =
  {|type Person {
  ssn : int;
  name : string;
  date_of_birth : date;
}

type Employee : Person(1) {
  pay_rate : float;
  hrs_worked : float;
}

reader get_ssn(self : Person) -> ssn;
reader get_name(self : Person) -> name;
reader get_date_of_birth(self : Person) -> date_of_birth;
reader get_pay_rate(self : Employee) -> pay_rate;
reader get_hrs_worked(self : Employee) -> hrs_worked;
writer set_pay_rate(self : Employee) -> pay_rate;

method age(p : Person) : int {
  return years_since(get_date_of_birth(p));
}

method income(e : Employee) : float {
  return get_pay_rate(e) * get_hrs_worked(e);
}
|}

let emp_view = "define view EmpView = project Employee on [ssn, date_of_birth, pay_rate];"

(* [years_since] reads this year when a served call runs. *)
let interp_now = 2026

let load_schema src = (Tdp_lang.Elaborate.load_exn src).Tdp_lang.Elaborate.schema

(* Pay rates are whole cents, so a rate prints, parses and compares
   exactly. *)
let rate_of_cents c = float_of_int c /. 100.
let value_str v = Dump.value_to_string v
let rate_str c = value_str (Value.Float (rate_of_cents c))
let random_cents rng = 1000 + Random.State.int rng 19000

(* A pay-rate threshold below which 0.5% to 1.5% of uniformly drawn
   rates fall, and the rows (1-based) under it. *)
let low_threshold rng = 1095 + Random.State.int rng 190

let rows_below cents x =
  let acc = ref [] in
  for i = Array.length cents downto 1 do
    if cents.(i - 1) < x then acc := i :: !acc
  done;
  !acc

(* [n] Employees; row [i] (1-based) is OID [#i] with [ssn = i]. *)
type rows = { n : int; cents : int array; born : int array  (* index i-1 *) }

let gen_rows ~seed n =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let cents = Array.init n (fun _ -> random_cents rng) in
  let born = Array.init n (fun _ -> 1950 + Random.State.int rng 60) in
  { n; cents; born }

let employee_init rows i =
  [ (at "ssn", Value.Int i);
    (at "name", Value.String ("e" ^ string_of_int i));
    (at "date_of_birth", Value.Date rows.born.(i - 1));
    (at "pay_rate", Value.Float (rate_of_cents rows.cents.(i - 1)));
    (at "hrs_worked", Value.Float 40.)
  ]

let fill db rows =
  Database.reserve db rows.n;
  for i = 1 to rows.n do
    let oid = Database.new_object db (ty "Employee") ~init:(employee_init rows i) in
    if Oid.to_int oid <> i then failwith "fixture: Employee OIDs are not 1..n"
  done

(* A store directory as [odb store init] + a checkpoint would leave it:
   the schema source and an atomic snapshot. *)
let make_store_dir ~dir ~schema_src rows =
  Unix.mkdir dir 0o755;
  Pb.write_file (Filename.concat dir "schema.odb") schema_src;
  let db = Database.create (load_schema schema_src) in
  fill db rows;
  Dump.save ~path:(Filename.concat dir "snapshot.dump") db

(* ---- the derive schema ------------------------------------------------ *)

let synth_config = { Tdp_synth.Synth.default with n_types = 50; n_gfs = 25 }

let synth_src () = Tdp_lang.Printer.print (Tdp_synth.Synth.generate synth_config)

(* ---- statement pools --------------------------------------------------- *)

(* What an embedded session over [schema_src] (after [preamble])
   answers to each statement: [Ok rendering], or [Error rendering]
   when it refuses it. *)
let renderings ~schema_src ~preamble sources =
  let s = Session.of_database ~now:interp_now (Database.create (load_schema schema_src)) in
  List.iter (fun src -> ignore (Session.eval_string s src)) preamble;
  List.map
    (fun src ->
      let outs = Session.eval_string s src in
      let text = String.concat "\n" (List.map Session.render outs) in
      (src, if List.exists Session.failed outs then Error text else Ok text))
    sources

(* [:type] statements with the rendering the served session must send
   back.  Candidates the embedded session rejects are not drawn: they
   are ill-formed requests, not program failures. *)
let typecheck_pool ~schema_src ~preamble candidates =
  renderings ~schema_src ~preamble (List.map (fun p -> ":type " ^ p) candidates)
  |> List.filter_map (function src, Ok text -> Some (src, text) | _, Error _ -> None)
  |> Array.of_list

(* Every projection of the Figure 1 types: each non-empty attribute
   subset of Employee and of Person, in declaration order. *)
let fig1_projections =
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let r = subsets rest in
        List.map (fun s -> x :: s) r @ r
  in
  List.concat_map
    (fun (t, attrs) ->
      List.filter_map (fun s -> if s = [] then None else Some (t, s)) (subsets attrs))
    [ ("Employee", [ "ssn"; "name"; "date_of_birth"; "pay_rate"; "hrs_worked" ]);
      ("Person", [ "ssn"; "name"; "date_of_birth" ]) ]

(* A projection as the traced run's replays read it back: "T|a,b". *)
let projection_input t attrs = t ^ "|" ^ String.concat "," attrs

let parse_projection s =
  match String.split_on_char '|' s with
  | [ t; attrs ] -> (ty t, List.map at (String.split_on_char ',' attrs))
  | _ -> invalid_arg ("projection input " ^ s)

let sample rng k l =
  let a = Array.of_list l in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (max 1 (min k n)))

let attrs_str l = String.concat ", " l

(* Project/select pipelines over the Figure 1 types and EmpView. *)
let employee_pipelines ~seed count =
  let rng = Random.State.make [| seed; 0x7e1 |] in
  let emp = [ "ssn"; "name"; "date_of_birth"; "pay_rate"; "hrs_worked" ]
  and view = [ "ssn"; "date_of_birth"; "pay_rate" ]
  and numeric = [ "ssn"; "pay_rate"; "hrs_worked" ] in
  let proj src attrs =
    Printf.sprintf "project %s on [%s]" src
      (attrs_str (sample rng (1 + Random.State.int rng (List.length attrs)) attrs))
  in
  let cmp () = List.nth [ "<"; "<="; ">"; ">="; "==" ] (Random.State.int rng 5) in
  let one () =
    match Random.State.int rng 5 with
    | 0 -> proj "Employee" emp
    | 1 -> proj "EmpView" view
    | 2 ->
        Printf.sprintf "select Employee where %s %s %d"
          (List.nth numeric (Random.State.int rng 3)) (cmp ()) (Random.State.int rng 200)
    | 3 -> Printf.sprintf "select EmpView where pay_rate %s %s" (cmp ()) (rate_str (random_cents rng))
    | _ ->
        let attrs = sample rng (2 + Random.State.int rng 3) emp in
        let a = List.find_opt (fun a -> List.mem a numeric) attrs in
        let base = Printf.sprintf "project Employee on [%s]" (attrs_str attrs) in
        (match a with
        | Some a -> Printf.sprintf "select %s where %s %s %d" base a (cmp ()) (Random.State.int rng 200)
        | None -> base)
  in
  List.init count (fun _ -> one ())

(* Projection pipelines over the synthetic schema, drawn like the
   derive workload's definitions. *)
let synth_pipelines schema ~seed count =
  let rng = Random.State.make [| seed; 0x7e2 |] in
  List.init count (fun i ->
      let t, attrs = Tdp_synth.Synth.gen_projection ~seed:((seed * 7919) + i) schema in
      let names = List.map Attr_name.to_string attrs in
      let base = Printf.sprintf "project %s on [%s]" (Type_name.to_string t) (attrs_str names) in
      if Random.State.bool rng then base
      else
        Printf.sprintf "select %s where %s < %d" base
          (List.nth names (Random.State.int rng (List.length names)))
          (Random.State.int rng 100))
