module Report = Vulndb.Report

let version = "corpus-features/1"

(* model-derived slots, then metadata slots *)
let names =
  [| "operations"; "objects"; "activities"; "gates"; "object_type_checks";
     "content_attribute_checks"; "reference_consistency_checks";
     "missing_checks"; "range_remote"; "range_local"; "range_both";
     "title_length"; "title_words"; "year" |]

let dim = Array.length names

let model_dim = 8

(* The app or pattern model standing in for a flaw mechanism.
   [Other_flaw] has no modelled structure: its model features are
   zero. *)
let model_of_flaw = function
  | Report.Stack_buffer_overflow -> Some (Apps.Buffer_overflow_pattern.model ())
  | Report.Heap_overflow -> Some (Apps.Nullhttpd.model (Apps.Nullhttpd.setup ()))
  | Report.Integer_overflow -> Some (Apps.Int_overflow_pattern.model ())
  | Report.Format_string -> Some (Apps.Format_string_pattern.model ())
  | Report.File_race -> Some (Apps.Xterm.model ())
  | Report.Path_traversal -> Some (Apps.Iis.model (Apps.Iis.setup ()))
  | Report.Other_flaw -> None

let all_flaws =
  [| Report.Stack_buffer_overflow; Report.Heap_overflow;
     Report.Integer_overflow; Report.Format_string; Report.File_race;
     Report.Path_traversal; Report.Other_flaw |]

let flaw_index = function
  | Report.Stack_buffer_overflow -> 0
  | Report.Heap_overflow -> 1
  | Report.Integer_overflow -> 2
  | Report.Format_string -> 3
  | Report.File_race -> 4
  | Report.Path_traversal -> 5
  | Report.Other_flaw -> 6

let kind_count kinds k =
  match List.assoc_opt k kinds with Some n -> float_of_int n | None -> 0.

(* Computed eagerly, on the main domain, before any Par fan-out can
   race the lazy guts of model construction. *)
let flaw_table : float array array =
  Array.map
    (fun flaw ->
      match model_of_flaw flaw with
      | None -> Array.make model_dim 0.
      | Some m ->
          let t = Pfsm.Metrics.of_model m in
          [| float_of_int t.Pfsm.Metrics.operations;
             float_of_int (List.length t.Pfsm.Metrics.objects);
             float_of_int t.Pfsm.Metrics.elementary_activities;
             float_of_int (max 0 (t.Pfsm.Metrics.operations - 1));
             kind_count t.Pfsm.Metrics.kinds Pfsm.Taxonomy.Object_type_check;
             kind_count t.Pfsm.Metrics.kinds Pfsm.Taxonomy.Content_attribute_check;
             kind_count t.Pfsm.Metrics.kinds Pfsm.Taxonomy.Reference_consistency_check;
             float_of_int t.Pfsm.Metrics.missing_checks |])
    all_flaws

(* A vector is a row of [row_table], chosen by (flaw, range), followed
   by the report's tail: title length, word count, year.  Rows are
   numbered [flaw_index * 3 + range_index]. *)
let row_dim = model_dim + 3

let range_index = function Report.Remote -> 0 | Report.Local -> 1 | Report.Both -> 2

let row_table : float array array =
  Array.init
    (Array.length all_flaws * 3)
    (fun i ->
      let v = Array.make row_dim 0. in
      Array.blit flaw_table.(i / 3) 0 v 0 model_dim;
      v.(model_dim + (i mod 3)) <- 1.;
      v)

let rows = Array.length row_table

let row i = Array.copy row_table.(i)

let row_index flaw range = (flaw_index flaw * 3) + range_index range

let row_of (r : Report.t) = row_index r.Report.flaw r.Report.range

let is_digit c = c >= '0' && c <= '9'

let digit s i = Char.code (String.unsafe_get s i) - Char.code '0'

(* The year is the date's first four characters, when they are decimal
   digits (a report's date is YYYY-MM-DD), counted from 1998; any other
   date reads 0. *)
let year_of d =
  if String.length d >= 4 && is_digit d.[0] && is_digit d.[1] && is_digit d.[2]
     && is_digit d.[3]
  then (digit d 0 * 1000) + (digit d 1 * 100) + (digit d 2 * 10) + digit d 3 - 1998
  else 0

(* Words are maximal runs of non-space characters. *)
let rec word_count s i n in_word =
  if i = String.length s then n
  else if String.unsafe_get s i = ' ' then word_count s (i + 1) n false
  else if in_word then word_count s (i + 1) n true
  else word_count s (i + 1) (n + 1) true

let set_tail_of ~title ~date v =
  v.(row_dim) <- float_of_int (String.length title);
  v.(row_dim + 1) <- float_of_int (word_count title 0 0 false);
  v.(row_dim + 2) <- float_of_int (year_of date)

let set_tail (r : Report.t) v = set_tail_of ~title:r.Report.title ~date:r.Report.date v

let of_fields ~flaw ~range ~title ~date =
  let v = Array.make dim 0. in
  Array.blit row_table.(row_index flaw range) 0 v 0 row_dim;
  set_tail_of ~title ~date v;
  v

let of_report (r : Report.t) =
  of_fields ~flaw:r.Report.flaw ~range:r.Report.range ~title:r.Report.title
    ~date:r.Report.date
