type status = Sound | Torn | Checksum_mismatch | Stale_version | Orphan_tmp

let status_to_string = function
  | Sound -> "ok"
  | Torn -> "torn"
  | Checksum_mismatch -> "checksum-mismatch"
  | Stale_version -> "stale-version"
  | Orphan_tmp -> "orphan-tmp"

type entry = {
  path : string;
  status : status;
  removed : bool;
}

type report = {
  entries : entry list;
  sound : int;
  torn : int;
  checksum_mismatch : int;
  stale_version : int;
  orphan_tmp : int;
  removed : int;
}

let has_suffix ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

(* A record file's name carries its key; the sharding prefix must
   agree or the file was moved by hand and is unfindable. *)
let key_of_rec_path rel =
  let base = Filename.basename rel in
  if not (has_suffix ~suffix:".rec" base) then None
  else
    let key = String.sub base 0 (String.length base - 4) in
    if not (Disk.valid_key key) then None
    else
      let expect =
        Filename.concat
          (Filename.concat (String.sub key 0 2) (String.sub key 2 2))
          base
      in
      if rel = expect then Some key else None

let classify_file store rel =
  if has_suffix ~suffix:".tmp" rel then Orphan_tmp
  else
    match key_of_rec_path rel with
    | None -> Checksum_mismatch  (* stray: not ours, not findable *)
    | Some key -> (
        match Io.read_file (Disk.record_path store ~key) with
        | Error _ -> Checksum_mismatch
        | Ok raw -> (
            match Record.decode raw with
            | Ok _ -> Sound
            | Error Record.Torn -> Torn
            | Error Record.Checksum_mismatch -> Checksum_mismatch
            | Error Record.Stale_version -> Stale_version))

let scan ?(repair = false) store =
  let objects = Filename.concat (Disk.dir store) "objects" in
  let entries = ref [] in
  let counts = Hashtbl.create 8 in
  let bump st = Hashtbl.replace counts st (1 + Option.value ~default:0 (Hashtbl.find_opt counts st)) in
  List.iter
    (fun rel ->
      let status = classify_file store rel in
      bump status;
      if status <> Sound then
        let removed =
          repair
          && (Io.remove_if_exists (Filename.concat objects rel);
              not (Sys.file_exists (Filename.concat objects rel)))
        in
        entries := { path = rel; status; removed } :: !entries)
    (Io.files_under objects);
  let entries = List.sort (fun a b -> compare a.path b.path) !entries in
  let count st = Option.value ~default:0 (Hashtbl.find_opt counts st) in
  {
    entries;
    sound = count Sound;
    torn = count Torn;
    checksum_mismatch = count Checksum_mismatch;
    stale_version = count Stale_version;
    orphan_tmp = count Orphan_tmp;
    removed = List.length (List.filter (fun (e : entry) -> e.removed) entries);
  }

let clean r = List.for_all (fun (e : entry) -> e.removed) r.entries

let to_json r =
  let entry e =
    Json.(
      Obj
        [ ("path", Str e.path); ("status", Str (status_to_string e.status));
          ("removed", Bool e.removed) ])
  in
  Json.(
    Obj
      [ ("ok", Int r.sound); ("torn", Int r.torn);
        ("checksum_mismatch", Int r.checksum_mismatch);
        ("stale_version", Int r.stale_version); ("orphan_tmp", Int r.orphan_tmp);
        ("removed", Int r.removed); ("clean", Bool (clean r));
        ("entries", List (List.map entry r.entries)) ])

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "fsck: %d ok, %d torn, %d checksum-mismatch, %d stale-version, %d \
     orphan-tmp@,"
    r.sound r.torn r.checksum_mismatch r.stale_version r.orphan_tmp;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-18s %s%s@,"
        (status_to_string e.status)
        e.path
        (if e.removed then " [removed]" else ""))
    r.entries;
  Format.fprintf ppf "status: %s@]"
    (if clean r then "clean" else "unclean")
