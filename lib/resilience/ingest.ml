module Csv = Vulndb.Csv
module Database = Vulndb.Database

type csv_outcome = {
  db : Database.t;
  report : Run_report.t;
  rejected : Csv.row Quarantine.t;
}

let reject e = raise (Quarantine.Reject (Csv.error_to_string e))

let line_of_row (row : Csv.row) =
  String.concat "," (List.map (fun (_, f) -> Csv.escape f) row.Csv.fields)

(* One data row: re-render, pass through the corruption seam, then
   re-tokenise and type what actually arrived.  Deliberately free of
   shared state: supervision runs this closure speculatively on pool
   domains, so anything cross-row (duplicate-id detection) belongs to
   the sequential post-pass below. *)
let ingest_row (row : Csv.row) () =
  let text = Fault.Hooks.mangle (line_of_row row) in
  let row' =
    match Csv.parse_rows text with
    | Error e -> reject e
    | Ok [ row' ] -> { row' with Csv.start_line = row.Csv.start_line }
    | Ok _ ->
        reject
          { Csv.line = row.Csv.start_line;
            column = 1;
            field = None;
            message = "row corrupted: no longer a single CSV record" }
  in
  match Csv.report_of_row row' with Error e -> reject e | Ok r -> r

let duplicate_error (row : Csv.row) id =
  { Csv.line = row.Csv.start_line;
    column = 1;
    field = Some (string_of_int id);
    message = "duplicate report id" }

let csv ?(label = "csv-ingest") ?config ?checkpoint ?stop_after text =
  match Csv.parse_rows text with
  | Error e -> Error e
  | Ok [] ->
      Error
        { Csv.line = 1; column = 1; field = None;
          message = "empty input: missing header" }
  | Ok (hd :: rows) ->
      if line_of_row hd <> Csv.header then
        Error
          { Csv.line = hd.Csv.start_line; column = 1; field = None;
            message = "bad header" }
      else begin
        let row_id (row : Csv.row) = Printf.sprintf "row:%d" row.Csv.start_line in
        (* every back-mapping below is through this index: one pass
           over the document, O(1) per lookup *)
        let row_by_id = Hashtbl.create (List.length rows) in
        List.iter (fun (row : Csv.row) -> Hashtbl.replace row_by_id (row_id row) row) rows;
        let items =
          List.map
            (fun (row : Csv.row) ->
               { Supervisor.id = row_id row;
                 resource = "csv";
                 work = ingest_row row })
            rows
        in
        let outcome =
          Supervisor.run ~label ?config ?checkpoint ?stop_after items
        in
        (* Duplicate detection, owned by this (sequential) pass over
           the results in replay order: the first row carrying an id
           wins, later ones are rejected — identical at any [-j]. *)
        let seen = Hashtbl.create 64 in
        let dup = Hashtbl.create 8 in
        let kept =
          List.filter
            (fun (item_id, (r : Vulndb.Report.t)) ->
               if Hashtbl.mem seen r.Vulndb.Report.id then begin
                 Hashtbl.replace dup item_id r.Vulndb.Report.id;
                 false
               end
               else begin
                 Hashtbl.add seen r.Vulndb.Report.id ();
                 true
               end)
            outcome.Supervisor.results
        in
        let rejected_cause item_id =
          match Hashtbl.find_opt dup item_id with
          | None -> None
          | Some id ->
              let row = Hashtbl.find row_by_id item_id in
              Some
                (Quarantine.Rejected
                   { detail = Csv.error_to_string (duplicate_error row id) })
        in
        let report =
          { outcome.Supervisor.report with
            Run_report.items =
              List.map
                (fun (it : Run_report.item) ->
                   match rejected_cause it.Run_report.id with
                   | None -> it
                   | Some cause ->
                       let attempts =
                         match it.Run_report.outcome with
                         | Run_report.Completed { attempts } -> attempts
                         | Run_report.Quarantined { attempts; _ } -> attempts
                       in
                       { it with
                         Run_report.outcome =
                           Run_report.Quarantined { attempts; cause } })
                outcome.Supervisor.report.Run_report.items }
        in
        let quarantined_by_id = Hashtbl.create 16 in
        List.iter
          (fun (e : _ Quarantine.entry) ->
             Hashtbl.replace quarantined_by_id e.Quarantine.id e)
          (Quarantine.entries outcome.Supervisor.quarantined);
        let attempts_by_id = Hashtbl.create 64 in
        List.iter
          (fun (it : Run_report.item) ->
             let attempts =
               match it.Run_report.outcome with
               | Run_report.Completed { attempts } -> attempts
               | Run_report.Quarantined { attempts; _ } -> attempts
             in
             Hashtbl.replace attempts_by_id it.Run_report.id attempts)
          outcome.Supervisor.report.Run_report.items;
        let rejected = Quarantine.create () in
        List.iter
          (fun (row : Csv.row) ->
             let id = row_id row in
             match Hashtbl.find_opt quarantined_by_id id with
             | Some e ->
                 Quarantine.isolate rejected ~id ~item:row
                   ~attempts:e.Quarantine.attempts e.Quarantine.cause
             | None -> (
                 match rejected_cause id with
                 | Some cause ->
                     let attempts =
                       Option.value ~default:1
                         (Hashtbl.find_opt attempts_by_id id)
                     in
                     Quarantine.isolate rejected ~id ~item:row ~attempts cause
                 | None -> ()))
          rows;
        Ok
          { db = Database.of_reports (List.map snd kept);
            report;
            rejected }
      end
