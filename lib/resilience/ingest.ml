module Csv = Vulndb.Csv
module Database = Vulndb.Database

type csv_outcome = { db : Database.t; report : Run_report.t }

let reject e = raise (Quarantine.Reject (Csv.error_to_string e))

let line_of_row (row : Csv.row) =
  String.concat "," (List.map (fun (_, f) -> Csv.escape f) row.Csv.fields)

(* One data row: re-render, pass through the corruption seam, then
   re-tokenise and type what actually arrived.  Deliberately free of
   shared state: supervision runs this closure speculatively on pool
   domains, so anything cross-row (duplicate-id detection) belongs to
   the sequential post-pass below.  The row rides along with its
   report so the post-pass can name it. *)
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
  match Csv.report_of_row row' with Error e -> reject e | Ok r -> (row, r)

let duplicate_error (row : Csv.row) id =
  { Csv.line = row.Csv.start_line;
    column = 1;
    field = Some (string_of_int id);
    message = "duplicate report id" }

let csv ?(label = "csv-ingest") ?config text =
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
        let items =
          List.map
            (fun (row : Csv.row) ->
               { Supervisor.id = Printf.sprintf "row:%d" row.Csv.start_line;
                 resource = "csv";
                 work = ingest_row row })
            rows
        in
        let outcome = Supervisor.run ~label ?config items in
        (* Duplicate detection, owned by this (sequential) pass over
           the results in replay order: the first row carrying an id
           wins, later ones are rejected — identical at any [-j]. *)
        let seen = Hashtbl.create 64 in
        let dup = Hashtbl.create 8 in
        let kept =
          List.filter_map
            (fun (item_id, (row, (r : Vulndb.Report.t))) ->
               let id = r.Vulndb.Report.id in
               if Hashtbl.mem seen id then begin
                 Hashtbl.replace dup item_id
                   (Csv.error_to_string (duplicate_error row id));
                 None
               end
               else begin
                 Hashtbl.add seen id ();
                 Some r
               end)
            outcome.Supervisor.results
        in
        (* A later duplicate completed under supervision; this walk
           turns it into the quarantine it is, announced once. *)
        let items =
          List.map
            (fun (it : Run_report.item) ->
               let id = it.Run_report.id in
               match it.Run_report.outcome, Hashtbl.find_opt dup id with
               | Run_report.Completed { attempts }, Some detail ->
                   Quarantine.isolate ~id ~attempts;
                   { it with
                     Run_report.outcome =
                       Run_report.Quarantined
                         { attempts; cause = Quarantine.Rejected { detail } } }
               | _ -> it)
            outcome.Supervisor.report.Run_report.items
        in
        Ok
          { db = Database.of_reports kept;
            report = { outcome.Supervisor.report with Run_report.items } }
      end
