(* Output checks against references that do not come from the code
   under test: hand-reviewed serve payloads, a largest-remainder split
   of the paper's Figure-1 counts computed here, and the supervision
   contract read off chaos's own report.  Each returns the list of
   problems found; empty means correct. *)

(* ---- serve ---------------------------------------------------------- *)

(* One distinct request: its wire fields and the payload dfsm must
   answer it with. *)
type request = { key : string; fields : (string * Json.t) list; result : Json.t }

let request_key fields =
  let get k = Option.bind (List.assoc_opt k fields) Json.str in
  match get "kind", get "app", get "target" with
  | Some kind, Some arg, None | Some kind, None, Some arg -> Some (kind ^ ":" ^ arg)
  | _ -> None

(* expected/serve.jsonl: one object per distinct request, its wire
   fields plus the expected "result". *)
let load_expected file =
  match In_channel.with_open_bin file In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | lines ->
      let parse_line line =
        match Json.parse line with
        | Ok (Json.Obj fields) -> (
            let result = List.assoc_opt "result" fields in
            let fields = List.remove_assoc "result" fields in
            match request_key fields, result with
            | Some key, Some result -> Ok { key; fields; result }
            | _ -> Error ("malformed expected entry: " ^ line))
        | Ok _ | Error _ -> Error ("malformed expected entry: " ^ line)
      in
      List.filter (fun l -> String.trim l <> "") lines
      |> List.fold_left
           (fun acc line ->
             match acc, parse_line line with
             | Ok rs, Ok r -> Ok (r :: rs)
             | (Error _ as e), _ | _, (Error _ as e) -> e)
           (Ok [])
      |> Result.map List.rev

let request_line ~id r = Json.to_string (Json.Obj (("id", Json.Str id) :: r.fields))

let serve_response ~id (r : request) line =
  match Json.parse line with
  | Error e -> [ Printf.sprintf "%s: unparseable response (%s)" id e ]
  | Ok v ->
      let field k = Json.field k Json.str v in
      if field "id" <> Some id then
        [ Printf.sprintf "%s: response carries id %s" id
            (Option.value ~default:"(none)" (field "id")) ]
      else if field "status" <> Some "ok" then
        [ Printf.sprintf "%s (%s): status %s" id r.key
            (Option.value ~default:"(none)" (field "status")) ]
      else if Json.member "result" v <> Some r.result then
        [ Printf.sprintf "%s (%s): payload differs from the expected one" id r.key ]
      else []

(* The summary line a server prints when it drains. *)
let serve_summary ~admitted line =
  match Json.parse line with
  | Error e -> [ "unparseable summary line: " ^ e ]
  | Ok v ->
      let int k = Json.field k Json.int v in
      let bool k = Json.member k v = Some (Json.Bool true) in
      List.filter_map Fun.id
        [ (if int "admitted" <> Some admitted then
             Some (Printf.sprintf "summary: admitted %s, sent %d"
                     (Option.fold ~none:"?" ~some:string_of_int (int "admitted")) admitted)
           else None);
          (if int "completed" <> Some admitted then Some "summary: not every request completed"
           else None);
          (if int "shed" <> Some 0 then Some "summary: requests were shed" else None);
          (if not (bool "accounted" && bool "drained") then
             Some "summary: unaccounted requests or unclean drain"
           else None) ]

(* ---- classify ------------------------------------------------------- *)

(* Largest-remainder apportionment of [total] over the paper's
   Figure-1 counts (which sum to 5925), ties to the earlier category. *)
let figure1_split total =
  let cats = Vulndb.Category.all in
  let counts = List.map Vulndb.Category.paper_count cats in
  let sum = List.fold_left ( + ) 0 counts in
  let base = List.map (fun c -> c * total / sum) counts in
  let rems = List.mapi (fun i c -> (i, c * total mod sum)) counts in
  let leftover = total - List.fold_left ( + ) 0 base in
  let winners =
    List.stable_sort (fun (_, a) (_, b) -> compare b a) rems
    |> List.filteri (fun k _ -> k < leftover)
    |> List.map fst
  in
  List.mapi
    (fun i (c, b) ->
      (Vulndb.Category.to_string c, if List.mem i winners then b + 1 else b))
    (List.combine cats base)

let classify ~total out =
  match Json.parse (String.trim out) with
  | Error e -> [ "classify: unparseable --json output: " ^ e ]
  | Ok v ->
      let int k = Json.field k Json.int v in
      let reported =
        List.filter_map
          (fun row ->
            match Json.field "category" Json.str row,
                  Json.field "reports" Json.int row with
            | Some c, Some n -> Some (c, n)
            | _ -> None)
          (Json.items "categories" v)
      in
      List.filter_map Fun.id
        [ (if int "planned" <> Some total then
             Some (Printf.sprintf "classify: planned %s reports, asked for %d"
                     (Option.fold ~none:"?" ~some:string_of_int (int "planned")) total)
           else None);
          (if int "classified" <> int "planned" then Some "classify: classified <> planned"
           else None);
          (if Json.member "ok" v <> Some (Json.Bool true) then Some "classify: \"ok\" is not true"
           else None) ]
      @ List.filter_map
          (fun (cat, want) ->
            match List.assoc_opt cat reported with
            | Some got when got = want -> None
            | got ->
                Some (Printf.sprintf "classify: %s has %s reports, the Figure-1 split gives %d"
                        cat (Option.fold ~none:"no" ~some:string_of_int got) want))
          (figure1_split total)

(* ---- chaos ---------------------------------------------------------- *)

(* No lost items and no unbounded retries, leg by leg, across [plans]
   fault plans. *)
let chaos ~plans out =
  match Json.parse (String.trim out) with
  | Error e -> [ "chaos: unparseable --json output: " ^ e ]
  | Ok v ->
      let retry_max = Json.field "retry_max" Json.int v in
      let runs = Json.items "plans" v in
      let leg_problems plan leg =
        let name = Option.value ~default:"?" (Json.field "name" Json.str leg) in
        let where = Printf.sprintf "chaos: plan %s, %s leg" plan name in
        match Json.member "report" leg with
        | None -> [ where ^ ": leg failed" ]
        | Some report ->
            let items = Json.items "items" report in
            let attempts = List.filter_map (fun i -> Json.field "attempts" Json.int i) items in
            (if Json.field "expected" Json.int leg <> Some (List.length items)
             then [ where ^ ": lost items" ] else [])
            @
            if List.exists (fun a -> Some a > retry_max) attempts
            then [ where ^ ": unbounded retries" ]
            else []
      in
      (if List.length runs <> plans then
         [ Printf.sprintf "chaos: %d plans reported, %d expected" (List.length runs) plans ]
       else [])
      @ (if Json.member "ok" v <> Some (Json.Bool true) then [ "chaos: \"ok\" is not true" ] else [])
      @ List.concat_map
          (fun run ->
            let plan = Option.value ~default:"?" (Json.field "plan" Json.str run) in
            List.concat_map (leg_problems plan)
              (Json.items "legs" run))
          runs
