(* The statement language: Session evaluation units, the print∘parse
   round-trip for Stmt.t, and the differential test proving the three
   frontends — Session directly, the repl, the server's [eval] verb —
   produce the same outcomes for the same statements. *)

module Ast = Tdp_lang.Ast
module Stmt = Tdp_lang.Stmt
module Session = Tdp_lang.Session
module Repl = Tdp_lang.Repl
module Elaborate = Tdp_lang.Elaborate
module Database = Tdp_store.Database
module Value = Tdp_store.Value
module Mvcc = Tdp_txn.Mvcc
module Server = Tdp_txn.Server
open Helpers

(* The paper's Figure 1 schema (examples/schemas/employee.odb). *)
let schema_src =
  {|
type Person {
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

method promote(e : Employee) : bool {
  return years_since(get_date_of_birth(e)) >= 5 and get_pay_rate(e) < 100;
}

method raise_pay(e : Employee) : float {
  set_pay_rate(e, get_pay_rate(e) + 10.0);
  return get_pay_rate(e);
}

method raise_then_fail(e : Employee) : int {
  set_pay_rate(e, get_pay_rate(e) + 10.0);
  return years_since(get_pay_rate(e));
}

method raise_ill_typed(e : Employee) : float {
  set_pay_rate(e, get_pay_rate(e) + 10.0);
  set_pay_rate(e, "ten");
  return get_pay_rate(e);
}

view EmpView = project Employee on [ssn, date_of_birth, pay_rate];
view Seniors = select EmpView where date_of_birth <= 1980;
|}

let elab = lazy (Elaborate.load_exn schema_src)

let fresh_session ?(views = true) () =
  let r = Lazy.force elab in
  let s = Session.of_database (Database.create r.Elaborate.schema) in
  if views then Session.install_views s r.Elaborate.views;
  s

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let unexpected what o =
  Alcotest.failf "expected %s, got: %s" what (Session.render o)

(* Evaluate [src] expecting exactly one outcome. *)
let one s src =
  match Session.eval_string s src with
  | [ o ] -> o
  | os ->
      Alcotest.failf "expected one outcome for %S, got %d" src (List.length os)

let check_diag s src code =
  match one s src with
  | Session.Diag _ as o when contains (Session.render o) code -> ()
  | o -> unexpected code o

(* ---- statement evaluation units ------------------------------------- *)

let test_bindings () =
  let s = fresh_session () in
  (match one s "let cheap = select Employee where pay_rate < 100.0;" with
  | Session.Bound { var = "cheap"; _ } -> ()
  | o -> unexpected "Bound cheap" o);
  (match one s "define view Pay = project Employee on [ssn, pay_rate];" with
  | Session.Defined { name = "Pay"; attrs; _ } ->
      Alcotest.check attr_names "Pay attrs" [ at "pay_rate"; at "ssn" ]
        (List.sort Tdp_core.Attr_name.compare attrs)
  | o -> unexpected "Defined Pay" o);
  (* lets resolve inside later expressions, catalog views likewise *)
  (match one s ":type select Pay where pay_rate < 50.0" with
  | Session.Typed _ -> ()
  | o -> unexpected "Typed" o);
  (match one s "drop view Pay;" with
  | Session.Dropped "Pay" -> ()
  | o -> unexpected "Dropped Pay" o);
  check_diag s ":extent Pay" "TDP051";
  (match one s ":views" with
  | Session.Views { defined; bound } ->
      (* EmpView and Seniors installed from the schema file; Pay dropped *)
      Alcotest.(check (list string)) "defined" [ "EmpView"; "Seniors" ]
        (List.sort compare (List.map fst defined));
      Alcotest.(check (list string)) "bound" [ "cheap" ] (List.map fst bound)
  | o -> unexpected "Views" o)

let test_diagnostics () =
  let s = fresh_session () in
  check_diag s "select where;" "TDP050";
  check_diag s ":extent Payroll" "TDP051";
  check_diag s "define view EmpView = project Employee on [ssn];" "TDP052";
  check_diag s ":extent project Employee on [salary]" "TDP053";
  check_diag s "type Extra { x : int; }" "TDP056";
  check_diag s "new Employee { ssn = \"not-an-int\" };" "TDP055";
  (* the session survives every failure above *)
  match one s ":schema" with
  | Session.Schema_info { types = 2; _ } -> ()
  | o -> unexpected "Schema_info with 2 types" o

let test_join_has_no_extent () =
  let s = fresh_session () in
  (match one s "let names = project Person on [ssn, name];" with
  | Session.Bound _ -> ()
  | o -> unexpected "Bound names" o);
  (match one s "define view Directory = join names with EmpView;" with
  | Session.Defined _ -> ()
  | o -> unexpected "Defined Directory" o);
  (* well-typed... *)
  (match one s ":type Directory" with
  | Session.Typed _ -> ()
  | o -> unexpected "Typed Directory" o);
  (* ...but not materializable: structured TDP054, not an exception *)
  check_diag s ":extent Directory" "TDP054"

let test_data_statements () =
  let s = fresh_session () in
  (match
     one s
       "new Employee { ssn = 1; name = \"amy\"; date_of_birth = year(1970); \
        pay_rate = 50.0; hrs_worked = 30.0 };"
   with
  | Session.Created { oid; ty = t } ->
      Alcotest.(check int) "oid" 1 (Tdp_store.Oid.to_int oid);
      Alcotest.(check string) "ty" "Employee" (Tdp_core.Type_name.to_string t)
  | o -> unexpected "Created" o);
  (match one s "call income on Employee;" with
  | Session.Called { gf = "income"; results = [ (_, Value.Float f) ] } ->
      Alcotest.(check (float 1e-9)) "income" 1500.0 f
  | o -> unexpected "Called income" o);
  (match one s "call age on Employee;" with
  | Session.Called { results = [ (_, Value.Int 56) ]; _ } -> ()
  | o -> unexpected "age 56 (now = 2026)" o);
  (match one s "set #1 { pay_rate = 60.0 };" with
  | Session.Updated { attrs = [ a ]; _ } ->
      Alcotest.(check string) "attr" "pay_rate" (Tdp_core.Attr_name.to_string a)
  | o -> unexpected "Updated" o);
  (match one s ":extent Seniors" with
  | Session.Extent { rows = [ (_, _) ]; attrs; _ } ->
      Alcotest.(check int) "Seniors width" 3 (List.length attrs)
  | o -> unexpected "Extent of Seniors" o);
  (match one s "del #1;" with
  | Session.Deleted _ -> ()
  | o -> unexpected "Deleted" o);
  check_diag s "del #1;" "TDP055";
  (* evaluation stops after :quit *)
  match Session.eval_string s ":quit\n:views" with
  | [ Session.Bye ] -> ()
  | os -> Alcotest.failf "expected [Bye], got %d outcomes" (List.length os)

let test_one_shot_helpers () =
  (match Session.check_source ~file:"employee.odb" schema_src with
  | Session.Checked { issues = []; views; _ } ->
      Alcotest.(check int) "declared views" 2 (List.length views)
  | o -> unexpected "clean Checked" o);
  (match Session.infer_source schema_src with
  | Session.Inferred { views; _ } ->
      List.iter
        (fun (name, vi) ->
          match vi with
          | Session.Admitted _ -> ()
          | _ -> Alcotest.failf "view %s not admitted" name)
        views
  | o -> unexpected "Inferred" o);
  let schema = (Lazy.force elab).Elaborate.schema in
  (match
     Session.resolve_call schema ~gf:"income" ~arg_types:[ ty "Employee" ]
       ~chain:false
   with
  | Session.Resolved { resolution = Session.Selected _; _ } as o ->
      Alcotest.(check bool) "selected is a success" false (Session.failed o)
  | o -> unexpected "Resolved/Selected" o);
  match
    Session.resolve_call schema ~gf:"income" ~arg_types:[ ty "Person" ]
      ~chain:false
  with
  | Session.Resolved { resolution = Session.No_method; _ } as o ->
      Alcotest.(check bool) "no-method is a failure" true (Session.failed o)
  | o -> unexpected "Resolved/No_method" o

(* ---- print∘parse round-trip (QCheck) -------------------------------- *)

module Gen_stmt = struct
  open Ast
  open QCheck.Gen

  (* Fixed pools keep identifiers clear of the keyword set. *)
  let attr = oneofl [ "ssn"; "name"; "pay_rate"; "dept"; "x1" ]
  let tyname = oneofl [ "Person"; "Employee"; "Dept"; "T9" ]
  let vname = oneofl [ "EmpPay"; "Cheap"; "V1" ]
  let var = oneofl [ "v"; "q"; "cheap1" ]
  let gfname = oneofl [ "income"; "age"; "promote" ]

  let lit =
    oneof
      [
        map (fun i -> LInt i) (int_range (-99) 999);
        (* quarters are exact in binary, and the lexer has no exponent
           form — %.12g of these always reparses *)
        map (fun k -> LFloat (float_of_int k /. 4.)) (int_range 0 399);
        map (fun s -> LString s) (oneofl [ "amy"; "acme corp"; "" ]);
        map (fun b -> LBool b) bool;
      ]

  let cmp = oneofl [ "=="; "!="; "<"; "<="; ">"; ">=" ]

  let rec pred n =
    if n <= 0 then map3 (fun a o l -> PCmp (a, o, l)) attr cmp lit
    else
      frequency
        [
          (3, pred 0);
          (1, map2 (fun a b -> PAnd (a, b)) (pred (n - 1)) (pred (n - 1)));
          (1, map2 (fun a b -> POr (a, b)) (pred (n - 1)) (pred (n - 1)));
          (1, map (fun a -> PNot a) (pred (n - 1)));
        ]

  let rec view n =
    if n <= 0 then map (fun t -> VBase t) tyname
    else
      frequency
        [
          (2, view 0);
          ( 2,
            map2
              (fun v attrs -> VProject (v, attrs))
              (view (n - 1))
              (list_size (int_range 1 3) attr) );
          (2, map2 (fun v p -> VSelect (v, p)) (view (n - 1)) (pred 1));
          (1, map2 (fun a b -> VGeneralize (a, b)) (view (n - 1)) (view (n - 1)));
          (1, map2 (fun a b -> VJoin (a, b)) (view (n - 1)) (view (n - 1)));
        ]

  let svalue =
    oneof
      [
        map (fun l -> SVLit l) lit;
        return SVNull;
        map (fun n -> SVRef n) (int_range 0 99);
        map (fun y -> SVDate y) (int_range 1900 2100);
      ]

  let fields = list_size (int_range 1 3) (pair attr svalue)

  let desc =
    let v = view 2 in
    frequency
      [
        (3, map2 (fun x e -> SLet { var = x; expr = e }) var v);
        (3, map2 (fun n e -> SDefine { name = n; expr = e }) vname v);
        (1, map (fun n -> SDrop n) vname);
        (2, map2 (fun g e -> SCallOn { gf = g; expr = e }) gfname v);
        (3, map2 (fun t fs -> SNew { ty = t; inits = fs }) tyname fields);
        ( 2,
          map2 (fun o fs -> SSet { oid = o; updates = fs }) (int_range 1 99)
            fields );
        ( 1,
          map2
            (fun o p -> SDelete { oid = o; policy = p })
            (int_range 1 99)
            (oneofl [ `Restrict; `Nullify ]) );
        (2, map (fun e -> SShow e) v);
        (2, map (fun e -> SType e) v);
        (2, map (fun e -> SExtent e) v);
        (1, oneofl [ SViews; SSchema; SQuit ]);
        (1, map2 (fun n e -> SDecl (IView { name = n; expr = e })) vname v);
      ]

  let stmt = map (fun d -> { spos = { line = 1; col = 1 }; sdesc = d }) desc
end

let stmt_arb = QCheck.make ~print:Stmt.to_string Gen_stmt.stmt

let prop_roundtrip =
  QCheck.Test.make ~name:"print∘parse round-trips statements" ~count:500
    stmt_arb (fun s ->
      match Stmt.parse (Stmt.to_string s) with
      | Ok [ s' ] -> Stmt.equal s s'
      | Ok l ->
          QCheck.Test.fail_reportf "%S parsed to %d statements"
            (Stmt.to_string s) (List.length l)
      | Error e ->
          QCheck.Test.fail_reportf "%S failed to parse: %s" (Stmt.to_string s)
            (Fmt.str "%a" Tdp_core.Error.pp e))

(* ---- three-frontend differential ------------------------------------ *)

(* One statement per line so every frontend sees identical parse units
   (the repl buffers per line; the server gets one [eval] per line). *)
let diff_stmts =
  [
    "define view EmpPay = project Employee on [ssn, date_of_birth, pay_rate];";
    "define view Cheap = select EmpPay where pay_rate < 100.0;";
    "new Employee { ssn = 1; name = \"amy\"; date_of_birth = year(1970); \
     pay_rate = 50.0; hrs_worked = 30.0 };";
    "new Employee { ssn = 2; name = \"bob\"; date_of_birth = year(1990); \
     pay_rate = 120.0; hrs_worked = 40.0 };";
    "new Employee { ssn = 3; foo = 1; bar = 2 };";
    ":extent Cheap";
    "call income on Employee;";
    "call age on Cheap;";
    "set #1 { pay_rate = 75.5 };";
    "call raise_pay on select Employee where ssn == 1;";
    ":extent Cheap";
    ":type Cheap";
    "let q = select Cheap where ssn == 1;";
    ":extent q";
    "del #2;";
    ":extent project Employee on [ssn, pay_rate]";
    ":views";
    ":extent Payroll" (* a failing statement renders identically too *);
  ]

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Frontend A: the Session API, statement by statement. *)
let direct_transcript () =
  let r = Lazy.force elab in
  let s = Session.of_database (Database.create r.Elaborate.schema) in
  String.concat "\n"
    (List.concat_map
       (fun line -> List.map Session.render (Session.eval_string s line))
       diff_stmts)

(* Frontend B: the repl over file channels (no echo, no prompts). *)
let repl_transcript () =
  let r = Lazy.force elab in
  let s = Session.of_database (Database.create r.Elaborate.schema) in
  let in_f = Filename.temp_file "tdp_diff" ".in"
  and out_f = Filename.temp_file "tdp_diff" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_f;
      Sys.remove out_f)
    (fun () ->
      let oc = open_out in_f in
      List.iter (fun l -> Printf.fprintf oc "%s\n" l) diff_stmts;
      close_out oc;
      let ic = open_in in_f and out = open_out out_f in
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          close_out_noerr out)
        (fun () -> Repl.run s ic out);
      read_file out_f)

(* A served session over a fresh in-memory MVCC store. *)
let served_store () =
  let r = Lazy.force elab in
  let load_schema src = (Elaborate.load_exn src).Elaborate.schema in
  let store = Mvcc.create ~load_schema r.Elaborate.schema in
  (store, Server.session ~store ())

(* A protocol request that must succeed. *)
let request_ok s line =
  match Server.handle_line s line with
  | resp when String.length resp >= 2 && String.sub resp 0 2 = "ok" -> resp
  | resp -> Alcotest.failf "%s refused: %s" line resp

(* The rendered outcomes of one [eval] request, whether it succeeded. *)
let eval_payload s src =
  let resp = Server.handle_line s (Fmt.str "eval %S" src) in
  try Scanf.sscanf resp "ok %S%!" Fun.id
  with _ -> (
    try Scanf.sscanf resp "err %S%!" Fun.id
    with _ -> Alcotest.failf "unparseable eval response: %s" resp)

(* Frontend C: a served eval session over an MVCC store. *)
let server_transcript () =
  let _, s = served_store () in
  ignore (request_ok s "begin");
  let text = String.concat "\n" (List.map (eval_payload s) diff_stmts) in
  ignore (request_ok s "commit");
  text

let test_differential () =
  let a = direct_transcript () in
  Alcotest.(check string) "repl = direct" (a ^ "\n") (repl_transcript ());
  Alcotest.(check string) "served eval = direct" a (server_transcript ())

(* A mutating statement outside a transaction is a TDP055 diagnostic,
   not a protocol error: the eval session survives. *)
let test_server_eval_needs_txn () =
  let _, s = served_store () in
  let resp = Server.handle_line s "eval \"new Employee { ssn = 1 };\"" in
  if not (contains resp "TDP055") then
    Alcotest.failf "wanted a TDP055 diagnostic, got: %s" resp;
  let resp = Server.handle_line s "eval \":schema\"" in
  if not (contains resp "ok ") then
    Alcotest.failf "session should survive: %s" resp

(* ---- methods over served eval ---------------------------------------- *)

let oid = Tdp_store.Oid.of_int

(* A served session whose committed head holds one Employee, #1 with
   pay_rate 50.0, at version 1. *)
let served_amy () =
  let store, s = served_store () in
  ignore (request_ok s "begin");
  ignore
    (eval_payload s
       "new Employee { ssn = 1; name = \"amy\"; date_of_birth = year(1970); \
        pay_rate = 50.0; hrs_worked = 30.0 };");
  ignore (request_ok s "commit");
  (store, s)

let check_head store what ~version rate =
  let head = Mvcc.head store ~branch:Mvcc.main_branch in
  Alcotest.(check int) (what ^ ": head version") version (Mvcc.version head);
  let got = Mvcc.get_attr head (oid 1) (at "pay_rate") in
  if not (Value.equal got (Value.Float rate)) then
    Alcotest.failf "%s: head pay_rate %a, expected %g" what Value.pp got rate

(* A method that writes through [set_pay_rate] sees its own write, and
   the write reaches the open transaction: visible to the next
   statement, durable at commit. *)
let test_mutating_call_in_txn () =
  let store, s = served_amy () in
  ignore (request_ok s "begin");
  Alcotest.(check string) "reads its own write" "raise_pay(#1) = 60"
    (eval_payload s "call raise_pay on Employee;");
  Alcotest.(check string) "next statement sees it" "get_pay_rate(#1) = 60"
    (eval_payload s "call get_pay_rate on Employee;");
  Alcotest.(check string) "protocol read sees it" "ok 60.0"
    (request_ok s "get #1 pay_rate");
  check_head store "before commit" ~version:1 50.0;
  ignore (request_ok s "commit");
  check_head store "after commit" ~version:2 60.0

(* Outside a transaction the call is TDP055 and the head is unchanged. *)
let test_mutating_call_needs_txn () =
  let store, s = served_amy () in
  let text = eval_payload s "call raise_pay on Employee;" in
  if not (contains text "TDP055" && contains text "no open transaction") then
    Alcotest.failf "wanted TDP055 no open transaction, got: %s" text;
  check_head store "after refused call" ~version:1 50.0

(* A method that writes and then fails — at run time, or on an
   ill-typed write — leaves the transaction's overlay as it was: its
   earlier writes are dropped with it, and committing publishes
   nothing. *)
let test_failing_call_drops_writes () =
  let store, s = served_amy () in
  ignore (request_ok s "begin");
  List.iter
    (fun (gf, why) ->
      let text = eval_payload s (Fmt.str "call %s on Employee;" gf) in
      if not (contains text "TDP055" && contains text why) then
        Alcotest.failf "%s: wanted TDP055 (%s), got: %s" gf why text;
      Alcotest.(check string) (gf ^ " left the overlay") "ok 50.0"
        (request_ok s "get #1 pay_rate"))
    [ ("raise_then_fail", "years_since"); ("raise_ill_typed", "conform") ];
  ignore (request_ok s "commit");
  check_head store "after commit" ~version:1 50.0

(* ---- one snapshot per eval request ----------------------------------- *)

(* A writer commits transactions that each delete one Employee and
   create another, so the extent always holds [k] rows; a reader
   outside any transaction must see exactly [k] rows in every response
   and never a row that vanished mid-request.  Each [eval] pins one
   head, so its OID list and its attribute reads come from one version. *)
let test_eval_reads_one_snapshot () =
  let seed =
    match Sys.getenv_opt "TDP_SEED" with
    | Some v -> int_of_string v
    | None -> Random.State.bits (Random.State.make_self_init ())
  in
  let k = 16 and rounds = 400 in
  let store, s = served_store () in
  ignore (request_ok s "begin");
  for i = 1 to k do
    ignore
      (eval_payload s
         (Fmt.str "new Employee { ssn = %d; date_of_birth = year(%d) };" i
            (1950 + i)))
  done;
  ignore (request_ok s "commit");
  let done_ = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| seed |] in
        let live = ref (List.init k (fun i -> oid (i + 1))) in
        Fun.protect
          ~finally:(fun () -> Atomic.set done_ true)
          (fun () ->
            for round = 1 to rounds do
              let t = Mvcc.begin_ store in
              let victim = List.nth !live (Random.State.int rng k) in
              Mvcc.delete t victim;
              let fresh =
                Mvcc.new_object t (Tdp_core.Type_name.of_string "Employee")
                  ~init:
                    [ (at "ssn", Value.Int (k + round));
                      (at "date_of_birth", Value.Date (1950 + round mod 50))
                    ]
              in
              (match Mvcc.commit t with
              | Ok _ -> ()
              | Error e ->
                  failwith
                    (Fmt.str "writer commit refused: %s"
                       (Mvcc.commit_error_message e)));
              live :=
                fresh
                :: List.filter (fun o -> not (Tdp_store.Oid.equal o victim)) !live;
              for _ = 1 to Random.State.int rng 200 do
                Domain.cpu_relax ()
              done
            done))
  in
  let failure = ref None in
  let check what text ~lines =
    if !failure = None then
      if contains text "no object" || contains text "TDP055" then
        failure := Some (Fmt.str "%s saw a vanished row:\n%s" what text)
      else if List.length (String.split_on_char '\n' text) <> lines then
        failure :=
          Some (Fmt.str "%s saw other than %d rows:\n%s" what k text)
  in
  let reads = ref 0 in
  while (not (Atomic.get done_)) || !reads < 20 do
    check ":extent" (eval_payload s ":extent Employee") ~lines:(k + 1);
    check "call" (eval_payload s "call age on Employee;") ~lines:k;
    incr reads
  done;
  Domain.join writer;
  match !failure with
  | None -> ()
  | Some msg -> Alcotest.failf "%s\n(seed %d; rerun with TDP_SEED=%d)" msg seed seed

let () =
  Alcotest.run "session"
    [
      ( "eval",
        [
          Alcotest.test_case "bindings and catalog" `Quick test_bindings;
          Alcotest.test_case "diagnostics TDP050-TDP056" `Quick
            test_diagnostics;
          Alcotest.test_case "join views have no extent" `Quick
            test_join_has_no_extent;
          Alcotest.test_case "data statements and calls" `Quick
            test_data_statements;
          Alcotest.test_case "one-shot CLI helpers" `Quick
            test_one_shot_helpers;
        ] );
      ("roundtrip", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
      ( "frontends",
        [
          Alcotest.test_case "same statements, same outcomes" `Quick
            test_differential;
          Alcotest.test_case "eval without txn is TDP055" `Quick
            test_server_eval_needs_txn;
        ] );
      ( "served calls",
        [
          Alcotest.test_case "mutating method inside a txn" `Quick
            test_mutating_call_in_txn;
          Alcotest.test_case "mutating method outside a txn" `Quick
            test_mutating_call_needs_txn;
          Alcotest.test_case "failing method drops its writes" `Quick
            test_failing_call_drops_writes;
          Alcotest.test_case "one snapshot per eval under commits" `Quick
            test_eval_reads_one_snapshot;
        ] );
    ]
