type t = {
  model_name : string;
  operations : int;
  objects : string list;
  elementary_activities : int;
  predicates : int;
  distinct_predicates : int;
  missing_checks : int;
  kinds : (Taxonomy.kind * int) list;
}

module String_set = Set.Make (String)

let of_model model =
  let ops = Model.operations model in
  let pfsms = List.map snd (Model.all_pfsms model) in
  (* set fold instead of sorting the whole operation list per call;
     [elements] is ascending, the order sort_uniq produced *)
  let objects =
    String_set.elements
      (List.fold_left
         (fun acc op -> String_set.add op.Operation.object_name acc)
         String_set.empty ops)
  in
  let nontrivial p = not (Predicate.no_check p.Primitive.spec) in
  let distinct =
    List.sort_uniq compare
      (List.concat_map (fun p -> [ p.Primitive.spec; p.Primitive.impl ]) pfsms)
  in
  let kinds =
    List.map
      (fun kind ->
         (kind,
          List.length
            (List.filter (fun p -> Taxonomy.equal p.Primitive.kind kind) pfsms)))
      Taxonomy.all
  in
  { model_name = model.Model.name;
    operations = List.length ops;
    objects;
    elementary_activities = List.length pfsms;
    predicates = List.length (List.filter nontrivial pfsms);
    distinct_predicates = List.length distinct;
    missing_checks = List.length (List.filter Primitive.missing_check pfsms);
    kinds }

let observation1_holds t = t.elementary_activities >= 2

let observation2_holds t = t.operations >= 2 || List.length t.objects >= 2

let observation3_holds t = t.predicates = t.elementary_activities

let pp ppf t =
  Format.fprintf ppf
    "%s: %d operation(s) on %d object(s), %d elementary activities, %d predicates (%d \
     distinct), %d missing impl checks"
    t.model_name t.operations (List.length t.objects) t.elementary_activities
    t.predicates t.distinct_predicates t.missing_checks

let pp_table ppf metrics =
  Format.fprintf ppf "@[<v>%-56s %4s %4s %4s %5s %5s %5s@," "model" "ops" "objs"
    "acts" "preds" "dist" "miss";
  List.iter
    (fun t ->
       Format.fprintf ppf "%-56s %4d %4d %4d %5d %5d %5d@," t.model_name t.operations
         (List.length t.objects) t.elementary_activities t.predicates
         t.distinct_predicates t.missing_checks)
    metrics;
  Format.fprintf ppf "@]"
