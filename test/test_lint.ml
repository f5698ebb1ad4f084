(* Linter tests: diagnostics that only programmatic schemas can trigger,
   the diagnostic table itself, JSON rendering, and a property test that
   the linter never raises on generated schemas. *)

open Tdp_core
open Helpers
module Lint = Tdp_analysis.Lint
module Diagnostic = Tdp_analysis.Diagnostic

let codes ds = List.map (fun (d : Diagnostic.t) -> d.code) ds

let has code ds = List.mem code (codes ds)

(* A minimal valid one-type schema to hang methods on. *)
let base_schema () =
  Schema.add_type Schema.empty
    (Type_def.make
       ~attrs:[ Attribute.make (at "x") Value_type.int ]
       ~supers:[] (ty "A"))

let method_calling gf =
  Method_def.make ~gf:"f" ~id:"f"
    ~signature:(Signature.make ~result:Value_type.int [ ("a", ty "A") ])
    (General [ Body.return_ (Body.call gf [ Body.var "a" ]) ])

let test_undeclared_gf () =
  (* The .odb surface can't produce this (unknown names elaborate to
     builtins), so exercise TDP008 through the API. *)
  let schema = Schema.add_method (base_schema ()) (method_calling "nosuch") in
  let ds = Lint.lint_schema schema in
  Alcotest.(check bool) "TDP008 fired" true (has "TDP008" ds)

let test_empty_gf () =
  let schema =
    Schema.declare_gf (base_schema ()) (Generic_function.declare ~arity:1 "g")
  in
  let ds = Lint.lint_schema schema in
  Alcotest.(check bool) "TDP026 fired" true (has "TDP026" ds)

let test_clean_schema_is_clean () =
  let schema =
    Schema.add_method (base_schema ())
      (Method_def.reader ~gf:"get_x" ~id:"get_x" ~param:"self" ~param_type:(ty "A")
         ~attr:(at "x") ~result:Value_type.int)
  in
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Lint.lint_schema schema))

let test_code_table () =
  let names = List.map (fun (c, _, _) -> c) Lint.codes in
  Alcotest.(check int)
    "codes are unique"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " is well-formed") true
        (String.length c = 6 && String.sub c 0 3 = "TDP"))
    names

let test_json_escaping () =
  let d =
    Diagnostic.make ~file:"a\"b.odb" ~position:(3, 7) ~code:"TDP000"
      ~severity:Diagnostic.Error "quote \" backslash \\ newline \n tab \t"
  in
  let j = Tdp_obs.Json.to_string (Diagnostic.to_json d) in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped quote" true (contains ~sub:{|a\"b.odb|} j);
  Alcotest.(check bool) "escaped newline" true (contains ~sub:{|newline \n tab|} j)

(* The inference pass (TDP040..TDP044): exercised through lint_views so
   the lowering, program solve, and instantiation check all run. *)
module View = Tdp_algebra.View
module Pred = Tdp_algebra.Pred

let two_type_schema () =
  Schema.add_type (base_schema ())
    (Type_def.make
       ~attrs:[ Attribute.make (at "y") Value_type.int ]
       ~supers:[] (ty "B"))

let test_inference_codes () =
  let schema = two_type_schema () in
  let fired views = codes (Lint.lint_views schema views) in
  Alcotest.(check (list string)) "TDP040: principal not instantiated"
    [ "TDP040" ]
    (fired [ ("G", View.Generalize (Base (ty "A"), Base (ty "B"))) ]);
  Alcotest.(check (list string)) "TDP041: attr absent from a closed row"
    [ "TDP041" ]
    (fired
       [ ("V", View.Project (Base (ty "A"), [ at "x" ]));
         ("W", View.Select (Base (ty "V"), Pred.cmp (at "ghost") Pred.Eq (Body.Int 1)))
       ]);
  Alcotest.(check (list string)) "TDP042: join of related operands"
    [ "TDP042" ]
    (fired
       [ ("P", View.Select (Base (ty "A"), Pred.True));
         ("J", View.Join (Base (ty "P"), Base (ty "A")))
       ]);
  Alcotest.(check (list string)) "TDP043: unsatisfiable comparisons"
    [ "TDP043" ]
    (fired
       [ ("C",
          View.Select
            (Base (ty "A"),
             Pred.And (Pred.cmp (at "x") Pred.Eq (Body.Int 1),
                       Pred.cmp (at "x") Pred.Eq (Body.String "one"))))
       ]);
  Alcotest.(check (list string)) "TDP044: incompatible cross-view reuse"
    [ "TDP044" ]
    (fired
       [ ("E", View.Select (Base (ty "A"), Pred.cmp (at "x") Pred.Eq (Body.Int 1)));
         ("S", View.Select (Base (ty "A"), Pred.cmp (at "x") Pred.Eq (Body.String "s")))
       ])

let test_inference_positions_and_json () =
  let schema = two_type_schema () in
  let views = [ ("G", View.Generalize (View.Base (ty "A"), View.Base (ty "B"))) ] in
  let ds =
    Lint.lint_views ~file:"f.odb" ~positions:[ ("G", (7, 3)) ] schema views
  in
  match List.find_opt (fun (d : Diagnostic.t) -> d.code = "TDP040") ds with
  | None -> Alcotest.fail "expected a TDP040 diagnostic"
  | Some d ->
      Alcotest.(check (option (pair int int))) "declaration position" (Some (7, 3))
        d.position;
      let j = Tdp_obs.Json.to_string (Diagnostic.to_json d) in
      let contains ~sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      List.iter
        (fun sub -> Alcotest.(check bool) (sub ^ " in json") true (contains ~sub j))
        [ {|"code":"TDP040"|}; {|"line":7|}; {|"col":3|}; {|"file":"f.odb"|} ]

(* Reuse the test_invariants_prop generator configuration: the linter
   must never raise, whatever schema it is handed. *)
let config_of_seed seed =
  let open Tdp_synth.Synth in
  { default with
    n_types = 4 + (seed mod 12);
    max_supers = 1 + (seed mod 3);
    attrs_per_type = 1 + (seed mod 3);
    n_gfs = 2 + (seed mod 4);
    methods_per_gf = 1 + (seed mod 3);
    max_params = 1 + (seed mod 2);
    calls_per_body = 1 + (seed mod 3);
    writer_fraction = (if seed mod 2 = 0 then 0.3 else 0.0);
    recursion = seed mod 3 <> 0;
    seed
  }

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

let prop_lint_total =
  QCheck.Test.make ~name:"linter never raises on generated schemas" ~count:150
    seed_arb (fun seed ->
      let schema = Tdp_synth.Synth.generate (config_of_seed seed) in
      let ds = Lint.lint_schema schema in
      (* generated schemas validate and type-check, so no error-severity
         body diagnostics can legitimately appear *)
      List.for_all
        (fun (d : Diagnostic.t) ->
          (not (Diagnostic.is_error d)) || d.code = "TDP020")
        ds)

let prop_lint_views_total =
  QCheck.Test.make ~name:"view linting never raises" ~count:75 seed_arb
    (fun seed ->
      let schema = Tdp_synth.Synth.generate (config_of_seed seed) in
      let source, projection = Tdp_synth.Synth.gen_projection ~seed schema in
      let views =
        [ ("v", Tdp_algebra.View.Project (Base source, projection));
          ("bad", Tdp_algebra.View.Base (ty "NoSuchType"))
        ]
      in
      ignore (Lint.lint_views schema views);
      true)

let () =
  let to_alco = QCheck_alcotest.to_alcotest in
  Alcotest.run "lint"
    [ ( "unit",
        [ Alcotest.test_case "TDP008 undeclared gf" `Quick test_undeclared_gf;
          Alcotest.test_case "TDP026 empty gf" `Quick test_empty_gf;
          Alcotest.test_case "clean schema" `Quick test_clean_schema_is_clean;
          Alcotest.test_case "code table" `Quick test_code_table;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "inference codes" `Quick test_inference_codes;
          Alcotest.test_case "inference positions and json" `Quick
            test_inference_positions_and_json
        ] );
      ("properties", List.map to_alco [ prop_lint_total; prop_lint_views_total ])
    ]
