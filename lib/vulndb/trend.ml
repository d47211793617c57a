let tally db keep =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun r ->
       if keep r then begin
         let year = Query.year_of r in
         Hashtbl.replace counts year
           (1 + Option.value ~default:0 (Hashtbl.find_opt counts year))
       end)
    (Database.reports db);
  Hashtbl.fold (fun y n acc -> (y, n) :: acc) counts []
  |> List.sort compare

let per_year db = tally db (fun _ -> true)

let family_per_year db = tally db (fun r -> Report.studied_family r.Report.flaw)

let pp_series ppf series =
  let peak = List.fold_left (fun acc (_, n) -> max acc n) 1 series in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (year, n) ->
       let width = n * 50 / peak in
       Format.fprintf ppf "%4d %6d %s@." year n (String.make width '#'))
    series;
  Format.fprintf ppf "@]"
