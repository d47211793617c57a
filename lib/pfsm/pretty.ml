let pp_pfsm ppf (p : Primitive.t) =
  Format.fprintf ppf "@[<v2>%s [%s] -- %s@,SPEC accepts iff: %a@,IMPL accepts iff: %a%s@]"
    p.Primitive.name
    (Taxonomy.to_string p.Primitive.kind)
    p.Primitive.activity
    Predicate.pp p.Primitive.spec
    Predicate.pp p.Primitive.impl
    (if Primitive.missing_check p then "   <-- no check in implementation (?)" else "")

let pp_operation ppf (op : Operation.t) =
  Format.fprintf ppf "@[<v2>Operation: %s (object: %s)@," op.Operation.name
    op.Operation.object_name;
  List.iteri
    (fun i stage ->
       if i > 0 then Format.fprintf ppf "@,";
       pp_pfsm ppf stage.Operation.pfsm;
       if stage.Operation.action_label <> "" then
         Format.fprintf ppf "@,  on accept: %s" stage.Operation.action_label)
    op.Operation.stages;
  if op.Operation.effect_label <> "" then
    Format.fprintf ppf "@,==> propagation gate: %s" op.Operation.effect_label;
  Format.fprintf ppf "@]"

let pp_model ppf (m : Model.t) =
  Format.fprintf ppf "@[<v>FSM model: %s%s@,%s@,"
    m.Model.name
    (match m.Model.bugtraq_id with
     | Some id -> Printf.sprintf " (Bugtraq #%d)" id
     | None -> "")
    m.Model.description;
  List.iteri
    (fun i b ->
       Format.fprintf ppf "@,";
       Format.fprintf ppf "[%d] input: %s@," (i + 1) b.Model.input_label;
       pp_operation ppf b.Model.operation;
       Format.fprintf ppf "@,")
    m.Model.bindings;
  Format.fprintf ppf "@]"

let pp_finding ppf (f : Analysis.pfsm_finding) =
  Format.fprintf ppf "%-28s %-8s %-30s hidden-hits=%d%s"
    f.Analysis.operation
    f.Analysis.pfsm.Primitive.name
    (Taxonomy.to_string f.Analysis.pfsm.Primitive.kind)
    f.Analysis.hidden_hits
    (if f.Analysis.missing_check then "  [no impl check]" else "")

let pp_report ppf (r : Analysis.report) =
  let exploited = Analysis.exploited r in
  Format.fprintf ppf "@[<v>analysis of %s: %d scenarios, %d exploited@,"
    r.Analysis.model.Model.name r.Analysis.scenarios_run (List.length exploited);
  List.iter (fun f -> Format.fprintf ppf "  %a@," pp_finding f) r.Analysis.findings;
  (match Analysis.vulnerable_operations r with
   | [] -> Format.fprintf ppf "  no vulnerable operation detected@,"
   | ops ->
       Format.fprintf ppf "  vulnerable operations: %s@," (String.concat ", " ops));
  Format.fprintf ppf "@]"

let pp_matrix ppf matrix =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (kind, cells) ->
       Format.fprintf ppf "%-32s: %s@,"
         (Taxonomy.to_string kind)
         (match cells with
          | [] -> "-"
          | _ ->
              String.concat ", "
                (List.map (fun (_op, p) -> p.Primitive.name) cells)))
    matrix;
  Format.fprintf ppf "@]"

let model_to_string m = Format.asprintf "%a" pp_model m
