let synthetic_id_base = 100_000

let legacy_total = Category.total_reports

(* Flaw mechanism targets per category at the legacy total.  Family
   total: 700 + 150 + 60 + 50 + 250 + 100 = 1310 of 5925 = 22.1%, the
   paper's "22% of all vulnerabilities". *)
let flaw_quota = function
  | Category.Boundary_condition_error ->
      [ (Report.Stack_buffer_overflow, 700); (Report.Heap_overflow, 150);
        (Report.Integer_overflow, 60) ]
  | Category.Input_validation_error ->
      [ (Report.Format_string, 250); (Report.Path_traversal, 300) ]
  | Category.Failure_to_handle_exceptional_conditions ->
      [ (Report.Integer_overflow, 50) ]
  | Category.Race_condition_error -> [ (Report.File_race, 100) ]
  | Category.Access_validation_error
  | Category.Atomicity_error
  | Category.Configuration_error
  | Category.Design_error
  | Category.Environment_error
  | Category.Origin_validation_error
  | Category.Serialization_error
  | Category.Unknown -> []

let software_pool =
  [| "AcmeHTTPd"; "OpenLPD"; "MegaFTPd"; "QuickIMAPd"; "NetTelnetd"; "FastDNSd";
     "ProxyCacheD"; "MailRelayd"; "WebCartPro"; "StatCGI"; "AuthGate"; "NewsSpool";
     "PrintSrv"; "IRCore"; "TimeSyncd"; "DirIndexer"; "FormMailer"; "ChatServ";
     "LogRotated"; "BackupMgr" |]

let flaw_phrase = function
  | Report.Stack_buffer_overflow -> "Buffer Overflow Vulnerability"
  | Report.Heap_overflow -> "Heap Corruption Vulnerability"
  | Report.Integer_overflow -> "Signed Integer Overflow Vulnerability"
  | Report.Format_string -> "Format String Vulnerability"
  | Report.File_race -> "Temporary File Race Condition Vulnerability"
  | Report.Path_traversal -> "Directory Traversal Vulnerability"
  | Report.Other_flaw -> "Vulnerability"

let category_phrase c =
  match c with
  | Category.Access_validation_error -> "Access Validation"
  | Category.Atomicity_error -> "Partial Update"
  | Category.Boundary_condition_error -> "Boundary Condition"
  | Category.Configuration_error -> "Default Configuration"
  | Category.Design_error -> "Design"
  | Category.Environment_error -> "Environment Interaction"
  | Category.Failure_to_handle_exceptional_conditions -> "Exception Handling"
  | Category.Input_validation_error -> "Input Validation"
  | Category.Origin_validation_error -> "Origin Validation"
  | Category.Race_condition_error -> "Race Condition"
  | Category.Serialization_error -> "Serialization"
  | Category.Unknown -> "Unspecified"

(* A synthetic report is seven PRNG draws, then strings built from
   them.  Field [k] below is the [k]-th draw of the position's stream,
   read by [Prng.nth] and taken as [Prng.in_range] takes a draw; [draw]
   and [chunk_draws] read the fields through these functions only, so
   the draw order is written here once.  It is part of every report's
   bytes (test_corpus pins them).  It is the right-to-left argument
   order of the [sprintf] calls an earlier builder used: the software's
   minor, major and package, the range, then the date's day, month and
   year. *)

type draw = {
  minor : int;
  major : int;
  package : int;
  range : Report.range;
  day : int;
  month : int;
  year : int;
}

let packages = Array.length software_pool

let first_year = 1998

let last_year = 2002

let[@inline] uniform s k ~low ~high = low + (Prng.nth ~seed:s k mod (high - low + 1))
let[@inline] minor_of s = uniform s 1 ~low:0 ~high:9
let[@inline] major_of s = uniform s 2 ~low:0 ~high:4
let[@inline] package_of s = uniform s 3 ~low:0 ~high:(packages - 1)
let[@inline] range_of s =
  match uniform s 4 ~low:0 ~high:3 with
  | 0 -> Report.Local
  | 1 -> Report.Both
  | _ -> Report.Remote
let[@inline] day_of s = uniform s 5 ~low:1 ~high:28
let[@inline] month_of s = uniform s 6 ~low:1 ~high:12
let[@inline] year_of s = uniform s 7 ~low:first_year ~high:last_year

(* The draw of the stream seeded [s]. *)
let draw s =
  { minor = minor_of s; major = major_of s; package = package_of s; range = range_of s;
    day = day_of s; month = month_of s; year = year_of s }

(* Report strings are written into [Bytes] directly: [Printf] took
   most of a million-report sweep's time. *)

(* [n] as [width] zero-padded decimal digits at [pos]. *)
let put_digits b ~pos ~width n =
  let n = ref n in
  for i = pos + width - 1 downto pos do
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' + (!n mod 10)));
    n := !n / 10
  done

(* YYYY-MM-DD *)
let date d =
  let b = Bytes.create 10 in
  put_digits b ~pos:0 ~width:4 d.year;
  Bytes.unsafe_set b 4 '-';
  put_digits b ~pos:5 ~width:2 d.month;
  Bytes.unsafe_set b 7 '-';
  put_digits b ~pos:8 ~width:2 d.day;
  Bytes.unsafe_to_string b

(* "<package> <major>.<minor>"; both version numbers are single
   digits. *)
let software_of d =
  let package = software_pool.(d.package) in
  let n = String.length package in
  let b = Bytes.create (n + 4) in
  Bytes.blit_string package 0 b 0 n;
  Bytes.unsafe_set b n ' ';
  put_digits b ~pos:(n + 1) ~width:1 d.major;
  Bytes.unsafe_set b (n + 2) '.';
  put_digits b ~pos:(n + 3) ~width:1 d.minor;
  Bytes.unsafe_to_string b

(* "<software> <category phrase> <flaw phrase>", in one allocation. *)
let title_of software category flaw =
  let c = category_phrase category and f = flaw_phrase flaw in
  let ns = String.length software and nc = String.length c in
  let b = Bytes.create (ns + nc + String.length f + 2) in
  Bytes.blit_string software 0 b 0 ns;
  Bytes.unsafe_set b ns ' ';
  Bytes.blit_string c 0 b (ns + 1) nc;
  Bytes.unsafe_set b (ns + nc + 1) ' ';
  Bytes.blit_string f 0 b (ns + nc + 2) (String.length f);
  Bytes.unsafe_to_string b

let title category flaw d = title_of (software_of d) category flaw

let materialize ~id ~category ~flaw d =
  let software = software_of d in
  Report.make ~id ~title:(title_of software category flaw) ~date:(date d)
    ~category ~software ~range:d.range ~flaw ~synthetic:true ()

(* ------------------------------------------------------------------ *)
(* The validated corpus plan. *)

type error =
  | Invalid_total of int
  | Invalid_chunk of int
  | Duplicate_curated_id of int
  | Id_overflow of { base : int; count : int }

let error_to_string = function
  | Invalid_total t ->
      Printf.sprintf "invalid corpus total %d: must be at least 1" t
  | Invalid_chunk c ->
      Printf.sprintf "invalid chunk size %d: must be at least 1" c
  | Duplicate_curated_id id ->
      Printf.sprintf "duplicate curated report id %d" id
  | Id_overflow { base; count } ->
      Printf.sprintf
        "synthetic id block of %d ids starting at %d overflows the id space"
        count base

type segment = {
  seg_category : Category.t;
  seg_flaw : Report.flaw;
  seg_first : int;  (* first synthetic position of this segment *)
  seg_count : int;
}

type plan = {
  target : int;
  curated : Report.t array;  (* ascending id *)
  synthetic : int;           (* synthetic positions in total *)
  segments : segment array;  (* contiguous, covering [0, synthetic) *)
  skips : int array;         (* curated ids >= synthetic_id_base, ascending *)
  digest : string;
}

(* Largest-remainder apportionment of [total] over the Figure-1
   category counts: exact at the legacy total, proportional (within
   one report) anywhere else, deterministic tie-break by category
   order. *)
let scaled_targets total =
  let cats = Array.of_list Category.all in
  let n = Array.length cats in
  let targets = Array.make n 0 and rems = Array.make n 0 in
  Array.iteri
    (fun i c ->
      let share = Category.paper_count c * total in
      targets.(i) <- share / legacy_total;
      rems.(i) <- share mod legacy_total)
    cats;
  let leftover = total - Array.fold_left ( + ) 0 targets in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare rems.(b) rems.(a) with 0 -> compare a b | c -> c)
    order;
  for k = 0 to leftover - 1 do
    let i = order.(k) in
    targets.(i) <- targets.(i) + 1
  done;
  (cats, targets)

let digest_of ~target ~curated ~segments ~skips =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "dfsm-synth-plan/1|%d|%d" target synthetic_id_base);
  Array.iter
    (fun (r : Report.t) ->
      Buffer.add_char b '|';
      Buffer.add_string b (Csv.of_report r))
    curated;
  Array.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "|%s/%s@%d+%d"
           (Category.to_string s.seg_category)
           (Report.flaw_to_string s.seg_flaw)
           s.seg_first s.seg_count))
    segments;
  Array.iter (fun id -> Buffer.add_string b (Printf.sprintf "|skip%d" id)) skips;
  Digest.to_hex (Digest.string (Buffer.contents b))

let plan ?(curated = Seed_data.reports) ~total () =
  (* [scaled_targets] multiplies paper counts by [total]; reject
     totals that could overflow that product (typed, up front). *)
  if total < 1 then Error (Invalid_total total)
  else if total > max_int / legacy_total then
    Error (Id_overflow { base = synthetic_id_base; count = total })
  else begin
    let curated =
      Array.of_list
        (List.sort (fun (a : Report.t) (b : Report.t) -> compare a.Report.id b.Report.id)
           curated)
    in
    let dup = ref None in
    Array.iteri
      (fun i (r : Report.t) ->
        if !dup = None && i > 0 && curated.(i - 1).Report.id = r.Report.id then
          dup := Some r.Report.id)
      curated;
    match !dup with
    | Some id -> Error (Duplicate_curated_id id)
    | None ->
        let curated_in category flaw_opt =
          Array.fold_left
            (fun acc (r : Report.t) ->
              if
                Category.equal r.Report.category category
                && (match flaw_opt with None -> true | Some f -> r.Report.flaw = f)
              then acc + 1
              else acc)
            0 curated
        in
        let cats, targets = scaled_targets total in
        let segments = ref [] and pos = ref 0 in
        let push category flaw count =
          if count > 0 then begin
            segments :=
              { seg_category = category; seg_flaw = flaw; seg_first = !pos;
                seg_count = count }
              :: !segments;
            pos := !pos + count
          end
        in
        Array.iteri
          (fun i category ->
            let per_flaw =
              List.map
                (fun (flaw, quota) ->
                  let scaled = quota * total / legacy_total in
                  (flaw, max 0 (scaled - curated_in category (Some flaw))))
                (flaw_quota category)
            in
            let emitted = List.fold_left (fun acc (_, n) -> acc + n) 0 per_flaw in
            let other =
              max 0 (targets.(i) - (curated_in category None + emitted))
            in
            List.iter (fun (flaw, n) -> push category flaw n) per_flaw;
            push category Report.Other_flaw other)
          cats;
        let synthetic = !pos in
        let segments = Array.of_list (List.rev !segments) in
        let skips =
          Array.of_list
            (List.filter
               (fun id -> id >= synthetic_id_base)
               (Array.to_list (Array.map (fun (r : Report.t) -> r.Report.id) curated)))
        in
        if
          synthetic > 0
          && synthetic > max_int - synthetic_id_base - Array.length skips
        then Error (Id_overflow { base = synthetic_id_base; count = synthetic })
        else
          Ok
            { target = total; curated; synthetic; segments; skips;
              digest = digest_of ~target:total ~curated ~segments ~skips }
  end

let plan_size p = Array.length p.curated + p.synthetic

let plan_synthetic p = p.synthetic

let plan_digest p = p.digest

let chunk_count p ~chunk = (plan_size p + chunk - 1) / chunk

(* Synthetic ids count up from the base, stepping over curated ids
   that live inside the block (ascending cascade: every skipped id
   shifts the rest of the block up by one). *)
let id_at p pos =
  let id = ref (synthetic_id_base + pos) in
  Array.iter (fun s -> if s <= !id then incr id) p.skips;
  !id

let segments p = Array.map (fun s -> (s.seg_category, s.seg_flaw)) p.segments

(* The index of the segment holding synthetic position [sp]. *)
let seg_index p sp =
  let lo = ref 0 and hi = ref (Array.length p.segments - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let s = p.segments.(mid) in
    if sp < s.seg_first then hi := mid - 1
    else if sp >= s.seg_first + s.seg_count then lo := mid + 1
    else begin
      lo := mid;
      hi := mid
    end
  done;
  !lo

(* The report at corpus position [pos] (curated first, then
   synthetic): a pure function of [(plan, seed, pos)]. *)
let report_at p ~seed ~pos =
  let nc = Array.length p.curated in
  if pos < nc then p.curated.(pos)
  else begin
    let sp = pos - nc in
    let seg = p.segments.(seg_index p sp) in
    (* synthetic position [sp] draws from its own child stream *)
    materialize ~id:(id_at p sp) ~category:seg.seg_category ~flaw:seg.seg_flaw
      (draw (Par.Seed.child ~seed ~index:sp))
  end

let chunk_reports p ~seed ~chunk ~index =
  let size = plan_size p in
  let lo = index * chunk in
  let hi = min size (lo + chunk) in
  let rec go i acc =
    if i < lo then acc else go (i - 1) (report_at p ~seed ~pos:i :: acc)
  in
  go (hi - 1) []

(* Segments are contiguous and never empty, so the segment index steps
   up by at most one from one position to the next.  A position reads
   the three draws the scorer needs and skips the other four. *)
let chunk_draws p ~seed ~chunk ~index ~curated ~synthetic =
  let nc = Array.length p.curated in
  let lo = index * chunk in
  let hi = min (plan_size p) (lo + chunk) in
  for pos = lo to min hi nc - 1 do
    curated p.curated.(pos)
  done;
  if hi > nc then begin
    let first = max lo nc - nc in
    let s = ref (seg_index p first) in
    for sp = first to hi - nc - 1 do
      let seg = p.segments.(!s) in
      if sp >= seg.seg_first + seg.seg_count then incr s;
      let stream = Par.Seed.child ~seed ~index:sp in
      synthetic ~segment:!s ~package:(package_of stream) ~range:(range_of stream)
        ~year:(year_of stream)
    done
  end

(* ------------------------------------------------------------------ *)
(* Streaming generation.  Every report is a pure function of
   [(plan, seed, position)], so chunks fan out over the domain pool
   and the merge is trivially deterministic: the sink sees chunk 0,
   chunk 1, ... with identical contents at any [-j] and any chunk
   size.  Only one wave of chunks is resident at a time. *)

let generate_stream ?curated ~seed ~total ~chunk f =
  if chunk < 1 then Error (Invalid_chunk chunk)
  else
    match plan ?curated ~total () with
    | Error e -> Error e
    | Ok p ->
        let n = chunk_count p ~chunk in
        let wave = max 1 (2 * Par.jobs ()) in
        let next = ref 0 in
        while !next < n do
          let count = min wave (n - !next) in
          let first = !next in
          let lists =
            Par.map ~label:"synth-stream"
              (fun i -> chunk_reports p ~seed ~chunk ~index:i)
              (Array.init count (fun k -> first + k))
          in
          Array.iteri (fun k l -> f ~index:(first + k) l) lists;
          next := first + count
        done;
        Ok (plan_size p)

let generate ~seed =
  let db = Database.empty () in
  match
    generate_stream ~seed ~total:legacy_total ~chunk:512 (fun ~index:_ rs ->
        List.iter (Database.add db) rs)
  with
  | Ok _ -> db
  | Error e -> invalid_arg ("Synth.generate: " ^ error_to_string e)
