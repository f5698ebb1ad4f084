open Tdp_core
module Metrics = Tdp_obs.Metrics

(* Principal-type inference for algebra pipelines, after Van den
   Bussche & Waller's polymorphic typing of the relational algebra.

   Every pipeline node gets a row variable describing the cumulative
   attribute set of its derived type.  Rows are either [Closed]
   (exactly known — a projection result carries exactly its projection
   list) or [Open] (a lower bound — a source type has at least the
   attributes the pipeline reads from it).  Requirements flow top-down
   through a union-find forest: projecting or selecting on an
   attribute requires it of the operand row; generalization
   ([Inter] rows) pushes requirements into both operands, while join
   ([Union] rows) cannot attribute a requirement to one side and
   defers it as a residual constraint checked at instantiation.

   Independently of rows, every node gets a type variable and the
   derivation-order facts the algebra guarantees: a selection is a
   subtype of its operand, a projection a supertype of its source, a
   generalization a supertype of both operands, a join a subtype of
   both.  Two join operands connected by a monotone chain of these
   edges are provably ⪯-related in every instantiation, which is
   exactly the condition under which {!Tdp_algebra.Join} refuses to
   derive.

   Kinds abstract predicate typing: the comparisons a program performs
   against one (globally unique) attribute are met together; an empty
   meet means no declared attribute type can satisfy them all. *)

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error =
  | Ill_typed of { view : string; reason : string }
  | Attr_absent of { view : string; attr : Attr_name.t; row : Attr_name.t list }
  | Join_related of { view : string; left : string; right : string }
  | Pred_conflict of { view : string; attr : Attr_name.t }
  | Reuse_conflict of { view : string; prior : string; attr : Attr_name.t }

exception Type_error of error

let error_view = function
  | Ill_typed { view; _ }
  | Attr_absent { view; _ }
  | Join_related { view; _ }
  | Pred_conflict { view; _ }
  | Reuse_conflict { view; _ } -> view

let attr_list l = String.concat ", " (List.map Attr_name.to_string l)

let error_message = function
  | Ill_typed { view; reason } -> Fmt.str "view %s is ill-typed: %s" view reason
  | Attr_absent { view; attr; row } ->
      Fmt.str "view %s requires attribute %s, but the row it reads has exactly {%s}"
        view (Attr_name.to_string attr) (attr_list row)
  | Join_related { view; left; right } ->
      Fmt.str "view %s joins operands that are related in every instantiation: %s and %s"
        view left right
  | Pred_conflict { view; attr } ->
      Fmt.str "view %s compares attribute %s in ways no attribute type satisfies"
        view (Attr_name.to_string attr)
  | Reuse_conflict { view; prior; attr } ->
      Fmt.str "view %s constrains attribute %s incompatibly with its use in view %s"
        view (Attr_name.to_string attr) prior

let pp_error ppf e = Fmt.string ppf (error_message e)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_constraints = Metrics.counter "infer.constraints"
let m_errors = Metrics.counter "infer.solve.errors"
let m_solve = Metrics.histogram "infer.solve_ns"
let m_admit = Metrics.histogram "infer.admit_ns"

(* ------------------------------------------------------------------ *)
(* Solver state                                                        *)
(* ------------------------------------------------------------------ *)

type shape = Open of Attr_name.Set.t | Closed of Attr_name.Set.t

(* How a row was derived, for requirement propagation. *)
type rel = Plain | Inter of int * int | Union of int * int

type cell = {
  mutable parent : int;
  mutable rank : int;
  mutable shape : shape;
  mutable rel : rel;
}

type state = {
  cells : (int, cell) Hashtbl.t;
  mutable n_cells : int;
  mutable n_tvars : int;
  mutable edges : (int * int) list;  (** (sub, super) over type variables *)
  srcs : (Type_name.t, int * int) Hashtbl.t;  (** name -> row var, type var *)
  env : (string, int * int) Hashtbl.t;  (** solved view -> row var, type var *)
  kinds : (Attr_name.t, kind_entry) Hashtbl.t;
  mutable residuals : (string * Attr_name.t) list;
}

and kind_entry = { mutable kind : Kind.t; mutable owner : string }

let create () =
  { cells = Hashtbl.create 32;
    n_cells = 0;
    n_tvars = 0;
    edges = [];
    srcs = Hashtbl.create 8;
    env = Hashtbl.create 8;
    kinds = Hashtbl.create 8;
    residuals = []
  }

let cell st i = Hashtbl.find st.cells i

let new_cell st shape rel =
  let i = st.n_cells in
  st.n_cells <- i + 1;
  Hashtbl.replace st.cells i { parent = i; rank = 0; shape; rel };
  i

let new_tvar st =
  let t = st.n_tvars in
  st.n_tvars <- t + 1;
  t

let rec find st i =
  let c = cell st i in
  if c.parent = i then i
  else begin
    let root = find st c.parent in
    c.parent <- root;
    root
  end

let shape_of st i = (cell st (find st i)).shape
let set_of = function Open s | Closed s -> s

let tick st = Metrics.incr m_constraints; ignore st

let merge_shapes ~view a b =
  match (a, b) with
  | Open la, Open lb -> Open (Attr_name.Set.union la lb)
  | Open l, Closed s | Closed s, Open l -> (
      match Attr_name.Set.choose_opt (Attr_name.Set.diff l s) with
      | Some attr ->
          raise
            (Type_error (Attr_absent { view; attr; row = Attr_name.Set.elements s }))
      | None -> Closed s)
  | Closed sa, Closed sb ->
      if Attr_name.Set.equal sa sb then Closed sa
      else
        raise
          (Type_error
             (Ill_typed
                { view;
                  reason = "rows with different exact attribute sets cannot be unified"
                }))

let union st ~view i j =
  tick st;
  let ri = find st i and rj = find st j in
  if ri <> rj then begin
    let ci = cell st ri and cj = cell st rj in
    let shape = merge_shapes ~view ci.shape cj.shape in
    let root, child = if ci.rank >= cj.rank then (ri, rj) else (rj, ri) in
    let croot = cell st root and cchild = cell st child in
    cchild.parent <- root;
    if ci.rank = cj.rank then croot.rank <- croot.rank + 1;
    croot.shape <- shape;
    if croot.rel = Plain then croot.rel <- cchild.rel
  end

let mem_row st i attr = Attr_name.Set.mem attr (set_of (shape_of st i))

(* Require [attr] of row [i]: exact rows must already carry it; open
   rows grow their lower bound and propagate per their derivation. *)
let rec require st ~view i attr =
  tick st;
  let c = cell st (find st i) in
  match c.shape with
  | Closed s ->
      if not (Attr_name.Set.mem attr s) then
        raise
          (Type_error (Attr_absent { view; attr; row = Attr_name.Set.elements s }))
  | Open lower ->
      if not (Attr_name.Set.mem attr lower) then begin
        c.shape <- Open (Attr_name.Set.add attr lower);
        match c.rel with
        | Plain -> ()
        | Inter (a, b) ->
            require st ~view a attr;
            require st ~view b attr
        | Union (a, b) ->
            (* the attribute may come from either side; decidable only
               against a concrete hierarchy *)
            if not (mem_row st a attr || mem_row st b attr) then
              st.residuals <- (view, attr) :: st.residuals
      end

let constrain_kind st ~view attr kind =
  tick st;
  if not (Kind.is_any kind) then
    if Kind.is_empty kind then
      raise (Type_error (Pred_conflict { view; attr }))
    else
      match Hashtbl.find_opt st.kinds attr with
      | None -> Hashtbl.replace st.kinds attr { kind; owner = view }
      | Some e ->
          let m = Kind.inter e.kind kind in
          if Kind.is_empty m then
            if String.equal e.owner view then
              raise (Type_error (Pred_conflict { view; attr }))
            else raise (Type_error (Reuse_conflict { view; prior = e.owner; attr }))
          else e.kind <- m

(* Provable ⪯-relatedness over the lineage graph: [a] reaches [b]
   following sub-to-super edges, or vice versa, or they are one
   variable.  Every edge is a true subtyping fact of every successful
   derivation, so relatedness here implies the join must fail. *)
let reaches st x y =
  let rec go visited = function
    | [] -> false
    | n :: rest ->
        if n = y then true
        else if List.mem n visited then go visited rest
        else
          let ups = List.filter_map (fun (s, u) -> if s = n then Some u else None) st.edges in
          go (n :: visited) (ups @ rest)
  in
  go [] [ x ]

let related st a b = a = b || reaches st a b || reaches st b a

(* ------------------------------------------------------------------ *)
(* Constraint generation                                               *)
(* ------------------------------------------------------------------ *)

let rec walk st ~view (node : Pipeline.node) =
  match node with
  | Source n -> (
      match Hashtbl.find_opt st.srcs n with
      | Some rt -> rt
      | None ->
          let r = new_cell st (Open Attr_name.Set.empty) Plain in
          let t = new_tvar st in
          Hashtbl.replace st.srcs n (r, t);
          (r, t))
  | Ref v -> (
      match Hashtbl.find_opt st.env v with
      | Some rt -> rt
      | None ->
          raise
            (Type_error
               (Ill_typed { view; reason = Fmt.str "references unknown view %s" v })))
  | Project (sub, attrs) ->
      let r_sub, t_sub = walk st ~view sub in
      if attrs = [] then
        raise (Type_error (Ill_typed { view; reason = "empty projection" }));
      List.iter (fun a -> require st ~view r_sub a) attrs;
      let r = new_cell st (Closed (Attr_name.Set.of_list attrs)) Plain in
      let t = new_tvar st in
      (* the source becomes a subtype of the derived view type *)
      st.edges <- (t_sub, t) :: st.edges;
      (r, t)
  | Select (sub, atoms) ->
      let r_sub, t_sub = walk st ~view sub in
      List.iter
        (fun (a : Pipeline.atom) ->
          require st ~view r_sub a.attr;
          constrain_kind st ~view a.attr a.kind)
        atoms;
      (* same cumulative state as the operand: alias the row *)
      let r = new_cell st (Open Attr_name.Set.empty) Plain in
      union st ~view r r_sub;
      let t = new_tvar st in
      st.edges <- (t, t_sub) :: st.edges;
      (r, t)
  | Generalize (a, b) ->
      let ra, ta = walk st ~view a in
      let rb, tb = walk st ~view b in
      let shape =
        match (shape_of st ra, shape_of st rb) with
        | Closed sa, Closed sb ->
            let i = Attr_name.Set.inter sa sb in
            if Attr_name.Set.is_empty i then
              raise
                (Type_error
                   (Ill_typed
                      { view;
                        reason = "generalize operands can share no attributes in any \
                                  instantiation"
                      }));
            Closed i
        | sa, sb -> Open (Attr_name.Set.inter (set_of sa) (set_of sb))
      in
      let r = new_cell st shape (Inter (ra, rb)) in
      let t = new_tvar st in
      st.edges <- (ta, t) :: (tb, t) :: st.edges;
      (r, t)
  | Join (a, b) ->
      let ra, ta = walk st ~view a in
      let rb, tb = walk st ~view b in
      if related st ta tb then
        raise
          (Type_error
             (Join_related
                { view;
                  left = Fmt.str "%a" Pipeline.pp a;
                  right = Fmt.str "%a" Pipeline.pp b
                }));
      let shape =
        match (shape_of st ra, shape_of st rb) with
        | Closed sa, Closed sb -> Closed (Attr_name.Set.union sa sb)
        | sa, sb -> Open (Attr_name.Set.union (set_of sa) (set_of sb))
      in
      let r = new_cell st shape (Union (ra, rb)) in
      let t = new_tvar st in
      st.edges <- (t, ta) :: (t, tb) :: st.edges;
      (r, t)
  | Call { gf = _; node } ->
      (* applying a generic function constrains methods, not rows; the
         instantiation check validates the function against the schema *)
      walk st ~view node

(* ------------------------------------------------------------------ *)
(* Principal schemas                                                   *)
(* ------------------------------------------------------------------ *)

type row = Exactly of Attr_name.Set.t | At_least of Attr_name.Set.t

type principal = {
  name : string;
  pipeline : Pipeline.node;  (** reference-free: refs inlined *)
  sources : (Type_name.t * Attr_name.Set.t) list;
  result : row;
  kinds : (Attr_name.t * Kind.t) list;
  gfs : string list;
  residuals : Attr_name.t list;
}

let rec fold_pipeline f acc (n : Pipeline.node) =
  let acc = f acc n in
  match n with
  | Source _ | Ref _ -> acc
  | Project (e, _) | Select (e, _) | Call { node = e; _ } -> fold_pipeline f acc e
  | Generalize (a, b) | Join (a, b) -> fold_pipeline f (fold_pipeline f acc a) b

let sources_mentioned n =
  fold_pipeline
    (fun acc -> function Pipeline.Source s -> s :: acc | _ -> acc)
    [] n
  |> List.sort_uniq Type_name.compare

let gfs_mentioned n =
  fold_pipeline
    (fun acc -> function Pipeline.Call { gf; _ } -> gf :: acc | _ -> acc)
    [] n
  |> List.sort_uniq String.compare

let attrs_mentioned n =
  fold_pipeline
    (fun acc -> function
      | Pipeline.Project (_, attrs) -> List.fold_left (fun s a -> Attr_name.Set.add a s) acc attrs
      | Pipeline.Select (_, atoms) ->
          List.fold_left (fun s (a : Pipeline.atom) -> Attr_name.Set.add a.attr s) acc atoms
      | _ -> acc)
    Attr_name.Set.empty n

let principal_of st ~name ~pipeline rvar =
  let sources =
    List.map
      (fun s ->
        match Hashtbl.find_opt st.srcs s with
        | Some (r, _) -> (s, set_of (shape_of st r))
        | None -> (s, Attr_name.Set.empty))
      (sources_mentioned pipeline)
  in
  let result =
    match shape_of st rvar with
    | Closed s -> Exactly s
    | Open s -> At_least s
  in
  let relevant =
    List.fold_left
      (fun acc (_, s) -> Attr_name.Set.union acc s)
      (Attr_name.Set.union (attrs_mentioned pipeline) (set_of (shape_of st rvar)))
      sources
  in
  let kinds =
    Attr_name.Set.fold
      (fun a acc ->
        match Hashtbl.find_opt st.kinds a with
        | Some e when not (Kind.is_any e.kind) -> (a, e.kind) :: acc
        | _ -> acc)
      relevant []
    |> List.sort (fun (a, _) (b, _) -> Attr_name.compare a b)
  in
  let residuals =
    List.filter_map (fun (v, a) -> if String.equal v name then Some a else None)
      st.residuals
    |> List.sort_uniq Attr_name.compare
  in
  { name; pipeline; sources; result; kinds; gfs = gfs_mentioned pipeline; residuals }

let pp_set ppf s =
  Fmt.pf ppf "{%s}" (attr_list (Attr_name.Set.elements s))

let pp_row ppf = function
  | Exactly s -> Fmt.pf ppf "exactly %a" pp_set s
  | At_least s -> Fmt.pf ppf "at least %a" pp_set s

let pp_principal ppf p =
  Fmt.pf ppf "@[<v>view %s : %a" p.name pp_row p.result;
  List.iter
    (fun (s, req) ->
      Fmt.pf ppf "@  source %a requires %a" Type_name.pp s pp_set req)
    p.sources;
  List.iter
    (fun (a, k) -> Fmt.pf ppf "@  kind %a : %a" Attr_name.pp a Kind.pp k)
    p.kinds;
  List.iter (fun gf -> Fmt.pf ppf "@  applies %s" gf) p.gfs;
  List.iter
    (fun a -> Fmt.pf ppf "@  residual: some join operand supplies %a" Attr_name.pp a)
    p.residuals;
  Fmt.pf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* Solve one view against the environment built so far and bind it
   there.  A view that fails is reported and bound to a fresh
   unconstrained row, so later views can still be solved (their own
   errors are not masked by a cascade). *)
let solve_view st inlined (name, node) =
  let pipeline = Pipeline.inline inlined node in
  let res =
    match walk st ~view:name node with
    | r, t ->
        Hashtbl.replace st.env name (r, t);
        Ok r
    | exception Type_error e ->
        Metrics.incr m_errors;
        let r = new_cell st (Open Attr_name.Set.empty) Plain in
        let t = new_tvar st in
        Hashtbl.replace st.env name (r, t);
        Error e
  in
  (pipeline, res)

let principal st ~name ~pipeline res =
  Result.map (fun r -> principal_of st ~name ~pipeline r) res

(* Solve a whole program in declaration order; principals are read
   once every view is solved. *)
let infer_program prog =
  Metrics.time m_solve @@ fun () ->
  let st = create () in
  let _, solved =
    List.fold_left
      (fun (inlined, acc) (name, node) ->
        let pipeline, res = solve_view st inlined (name, node) in
        ((name, pipeline) :: inlined, (name, pipeline, res) :: acc))
      ([], []) prog
  in
  List.rev_map
    (fun (name, pipeline, res) -> (name, principal st ~name ~pipeline res))
    solved

let infer ?(name = "pipeline") node =
  Metrics.time m_solve @@ fun () ->
  let st = create () in
  let pipeline, res = solve_view st [] (name, node) in
  principal st ~name ~pipeline res

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

(* Evaluate the (reference-free) pipeline bottom-up against a concrete
   schema, mirroring what derivation checks: source existence,
   attribute availability, predicate typing, non-empty common
   attributes, and generic-function applicability.  The attribute set
   computed for each node is exactly the cumulative state its derived
   type would have. *)
let admits schema (p : principal) =
  Metrics.time m_admit @@ fun () ->
  let h = Schema.hierarchy schema in
  let view = p.name in
  let absent attr s =
    raise (Type_error (Attr_absent { view; attr; row = Attr_name.Set.elements s }))
  in
  let rec eval (n : Pipeline.node) =
    match n with
    | Source ty ->
        if not (Hierarchy.mem h ty) then
          raise
            (Type_error
               (Ill_typed { view; reason = Fmt.str "unknown type %a" Type_name.pp ty }));
        Attr_name.Set.of_list (Hierarchy.all_attribute_names h ty)
    | Ref v ->
        raise
          (Type_error
             (Ill_typed { view; reason = Fmt.str "unresolved reference to view %s" v }))
    | Project (e, attrs) ->
        let s = eval e in
        if attrs = [] then
          raise (Type_error (Ill_typed { view; reason = "empty projection" }));
        (match List.find_opt (fun a -> not (Attr_name.Set.mem a s)) attrs with
        | Some a -> absent a s
        | None -> ());
        Attr_name.Set.of_list attrs
    | Select (e, atoms) ->
        let s = eval e in
        List.iter
          (fun (at : Pipeline.atom) ->
            if not (Attr_name.Set.mem at.attr s) then absent at.attr s;
            match
              Option.bind (Hierarchy.attr_owner h at.attr) (fun o ->
                  Hierarchy.find_attribute h o at.attr)
            with
            | Some a when not (Kind.admits at.kind (Attribute.ty a)) ->
                raise (Type_error (Pred_conflict { view; attr = at.attr }))
            | _ -> ())
          atoms;
        s
    | Generalize (a, b) ->
        let i = Attr_name.Set.inter (eval a) (eval b) in
        if Attr_name.Set.is_empty i then
          raise
            (Type_error
               (Ill_typed { view; reason = "generalize operands share no attributes" }));
        i
    | Join (a, b) -> Attr_name.Set.union (eval a) (eval b)
    | Call { gf; node } ->
        let s = eval node in
        (match Schema.find_gf_opt schema gf with
        | None ->
            raise
              (Type_error
                 (Ill_typed
                    { view; reason = Fmt.str "calls undeclared generic function %s" gf }))
        | Some g ->
            if Generic_function.arity g <> 1 then
              raise
                (Type_error
                   (Ill_typed
                      { view;
                        reason =
                          Fmt.str "generic function %s takes %d dispatched arguments, \
                                   not 1"
                            gf (Generic_function.arity g)
                      })));
        s
  in
  match eval p.pipeline with
  | (_ : Attr_name.Set.t) -> Ok ()
  | exception Type_error e -> Error e
