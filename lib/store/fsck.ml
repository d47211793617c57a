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

let classify_file store rel =
  match Disk.file_kind rel with
  | Disk.Tmp_file -> Orphan_tmp
  | Disk.Stray_file -> Checksum_mismatch  (* not ours, not findable *)
  | Disk.Record_file -> (
      match Io.read_file (Disk.object_path store rel) with
      | Error _ -> Checksum_mismatch
      | Ok raw -> (
          match Record.decode raw with
          | Ok _ -> Sound
          | Error Record.Torn -> Torn
          | Error Record.Checksum_mismatch -> Checksum_mismatch
          | Error Record.Stale_version -> Stale_version))

let scan ?(repair = false) store =
  let entries = ref [] in
  let counts = Hashtbl.create 8 in
  let bump st = Hashtbl.replace counts st (1 + Option.value ~default:0 (Hashtbl.find_opt counts st)) in
  List.iter
    (fun rel ->
      let status = classify_file store rel in
      bump status;
      if status <> Sound then
        let path = Disk.object_path store rel in
        let removed =
          repair && (Io.remove_if_exists path; not (Sys.file_exists path))
        in
        entries := { path = rel; status; removed } :: !entries)
    (Disk.object_files store);
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
