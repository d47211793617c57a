(* Per-pFSM transition coverage: which of the four Figure-2 edges
   (SPEC_ACPT / SPEC_REJ / IMPL_REJ / IMPL_ACPT) each primitive
   exercised across a corpus of scenarios.  This turns the paper's
   Figure-8 taxonomy into a measurable quantity: a pFSM whose SPEC_REJ
   edge never fired was never challenged by the corpus, and an
   IMPL_ACPT count > 0 is a driven hidden path. *)

type cell = {
  operation : string;
  pfsm : string;
  kind : Taxonomy.kind;
  spec_acpt : int;
  spec_rej : int;
  impl_rej : int;
  impl_acpt : int;
}

type t = { scenarios : int; cells : cell list }

let exercised c =
  (if c.spec_acpt > 0 then 1 else 0)
  + (if c.spec_rej > 0 then 1 else 0)
  + (if c.impl_rej > 0 then 1 else 0)
  + if c.impl_acpt > 0 then 1 else 0

let edges_total t = 4 * List.length t.cells

let edges_exercised t =
  List.fold_left (fun acc c -> acc + exercised c) 0 t.cells

let pct t =
  let total = edges_total t in
  if total = 0 then 0.0
  else 100.0 *. float_of_int (edges_exercised t) /. float_of_int total

let of_report (report : Analysis.report) =
  (* counts keyed by (operation, pfsm name); cells are emitted in
     model order, so the rendering is deterministic *)
  let counts : (string * string, int array) Hashtbl.t = Hashtbl.create 64 in
  let bump op name tr =
    let key = (op, name) in
    let a =
      match Hashtbl.find_opt counts key with
      | Some a -> a
      | None ->
          let a = Array.make 4 0 in
          Hashtbl.add counts key a;
          a
    in
    let i =
      match tr with
      | Primitive.Spec_acpt -> 0
      | Primitive.Spec_rej -> 1
      | Primitive.Impl_rej -> 2
      | Primitive.Impl_acpt -> 3
    in
    a.(i) <- a.(i) + 1
  in
  List.iter
    (fun (_env, trace) ->
      List.iter
        (fun (s : Trace.step) ->
          List.iter
            (fun tr -> bump s.operation s.pfsm.Primitive.name tr)
            s.verdict.Primitive.path)
        trace.Trace.steps)
    report.Analysis.traces;
  let cell_of (op, (p : Primitive.t)) =
    let a =
      match Hashtbl.find_opt counts (op, p.name) with
      | Some a -> a
      | None -> Array.make 4 0
    in
    { operation = op;
      pfsm = p.name;
      kind = p.kind;
      spec_acpt = a.(0);
      spec_rej = a.(1);
      impl_rej = a.(2);
      impl_acpt = a.(3) }
  in
  { scenarios = report.Analysis.scenarios_run;
    cells = List.map cell_of (Model.all_pfsms report.Analysis.model) }

(* Coverage tables from several reports side by side (e.g. one per
   corpus file): cells for the same (operation, pfsm) sum. *)
let merge a b =
  let tbl = Hashtbl.create 64 in
  let add c =
    let key = (c.operation, c.pfsm) in
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.add tbl key c
    | Some c0 ->
        Hashtbl.replace tbl key
          { c0 with
            spec_acpt = c0.spec_acpt + c.spec_acpt;
            spec_rej = c0.spec_rej + c.spec_rej;
            impl_rej = c0.impl_rej + c.impl_rej;
            impl_acpt = c0.impl_acpt + c.impl_acpt }
  in
  List.iter add a.cells;
  List.iter add b.cells;
  (* keep first-seen order: a's cells, then b's novel ones *)
  let seen = Hashtbl.create 64 in
  let ordered =
    List.filter_map
      (fun c ->
        let key = (c.operation, c.pfsm) in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Hashtbl.find_opt tbl key
        end)
      (a.cells @ b.cells)
  in
  { scenarios = a.scenarios + b.scenarios; cells = ordered }

let empty = { scenarios = 0; cells = [] }

let pp ppf t =
  Format.fprintf ppf
    "transition coverage: %d/%d edges (%.1f%%) over %d scenarios@."
    (edges_exercised t) (edges_total t) (pct t) t.scenarios;
  Format.fprintf ppf "  %-50s %-10s %9s %9s %9s %9s@." "operation / pfsm"
    "kind" "SPEC_ACPT" "SPEC_REJ" "IMPL_REJ" "IMPL_ACPT";
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-50s %-10s %9d %9d %9d %9d@."
        (c.operation ^ "/" ^ c.pfsm)
        (match c.kind with
        | Taxonomy.Object_type_check -> "type"
        | Taxonomy.Content_attribute_check -> "content"
        | Taxonomy.Reference_consistency_check -> "reference")
        c.spec_acpt c.spec_rej c.impl_rej c.impl_acpt)
    t.cells

let to_json t =
  let cell c =
    Json.(
      Obj
        [ ("operation", Str c.operation); ("pfsm", Str c.pfsm);
          ("kind", Str (Taxonomy.to_string c.kind)); ("spec_acpt", Int c.spec_acpt);
          ("spec_rej", Int c.spec_rej); ("impl_rej", Int c.impl_rej);
          ("impl_acpt", Int c.impl_acpt); ("exercised", Int (exercised c)) ])
  in
  Json.(
    Obj
      [ ("scenarios", Int t.scenarios); ("edges_exercised", Int (edges_exercised t));
        ("edges_total", Int (edges_total t)); ("pct", Fixed (1, pct t));
        ("cells", List (List.map cell t.cells)) ])
