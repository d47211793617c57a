let lowercase = String.lowercase_ascii

let contains ~needle haystack =
  let needle = lowercase needle and haystack = lowercase haystack in
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0

let by_software db s =
  Database.filter db (fun r -> contains ~needle:s r.Report.software)

let by_flaw db flaw = Database.filter db (fun r -> r.Report.flaw = flaw)

let year_of (r : Report.t) =
  match int_of_string_opt (String.sub r.Report.date 0 4) with
  | Some y -> y
  | None -> 0

let between db ~since ~until =
  Database.filter db (fun r -> r.Report.date >= since && r.Report.date <= until)

let text_search db text =
  Database.filter db (fun r ->
      contains ~needle:text r.Report.title
      || contains ~needle:text r.Report.description)

let remote_share db =
  let remote =
    Database.count db (fun r ->
        match r.Report.range with
        | Report.Remote | Report.Both -> true
        | Report.Local -> false)
  in
  100.0 *. float_of_int remote /. float_of_int (max 1 (Database.size db))
