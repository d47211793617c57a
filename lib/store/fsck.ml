type status = Sound | Torn | Checksum_mismatch | Stale_version | Orphan_tmp

let status_to_string = function
  | Sound -> "ok"
  | Torn -> "torn"
  | Checksum_mismatch -> "checksum-mismatch"
  | Stale_version -> "stale-version"
  | Orphan_tmp -> "orphan-tmp"

type entry = {
  path : string;
  key : string option;
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
  manifest_stale : int;
  manifest_missing : int;
  removed : int;
  manifest_rewritten : bool;
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
  if has_suffix ~suffix:".tmp" rel then (None, Orphan_tmp)
  else
    match key_of_rec_path rel with
    | None -> (None, Checksum_mismatch)  (* stray: not ours, not findable *)
    | Some key -> (
        match Io.read_file (Disk.record_path store ~key) with
        | Error _ -> (Some key, Checksum_mismatch)
        | Ok raw -> (
            match Record.decode raw with
            | Ok _ -> (Some key, Sound)
            | Error Record.Torn -> (Some key, Torn)
            | Error Record.Checksum_mismatch -> (Some key, Checksum_mismatch)
            | Error Record.Stale_version -> (Some key, Stale_version)))

let scan ?(repair = false) store =
  let objects = Filename.concat (Disk.dir store) "objects" in
  let sound_keys = ref [] in
  let entries = ref [] in
  let counts = Hashtbl.create 8 in
  let bump st = Hashtbl.replace counts st (1 + Option.value ~default:0 (Hashtbl.find_opt counts st)) in
  List.iter
    (fun rel ->
      let key, status = classify_file store rel in
      bump status;
      match status with
      | Sound -> sound_keys := Option.get key :: !sound_keys
      | _ ->
          let removed =
            repair
            && (Io.remove_if_exists (Filename.concat objects rel);
                not (Sys.file_exists (Filename.concat objects rel)))
          in
          entries := { path = rel; key; status; removed } :: !entries)
    (Io.files_under objects);
  let sound_keys = List.sort compare !sound_keys in
  let sound_set = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace sound_set k ()) sound_keys;
  (* manifest drift: verified lines naming no sound record, plus raw
     lines that fail to unseal at all *)
  let listed = Disk.manifest_keys store in
  let listed_set = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace listed_set k ()) listed;
  let unverifiable_lines =
    match Io.read_file (Disk.manifest_path store) with
    | Error _ -> 0
    | Ok data ->
        List.fold_left
          (fun n line ->
            if line = "" then n
            else
              match Record.unseal_line line with
              | `Sealed k when Disk.valid_key k -> n
              | `Sealed _ | `Mismatch | `Unsealed -> n + 1)
          0
          (String.split_on_char '\n' data)
  in
  let manifest_stale =
    unverifiable_lines
    + List.length (List.filter (fun k -> not (Hashtbl.mem sound_set k)) listed)
  in
  let manifest_missing =
    List.length
      (List.filter (fun k -> not (Hashtbl.mem listed_set k)) sound_keys)
  in
  let manifest_rewritten =
    repair && (manifest_stale > 0 || manifest_missing > 0)
  in
  if manifest_rewritten then Disk.rewrite_manifest store ~keys:sound_keys;
  let entries = List.sort (fun a b -> compare a.path b.path) !entries in
  let count st = Option.value ~default:0 (Hashtbl.find_opt counts st) in
  {
    entries;
    sound = count Sound;
    torn = count Torn;
    checksum_mismatch = count Checksum_mismatch;
    stale_version = count Stale_version;
    orphan_tmp = count Orphan_tmp;
    manifest_stale;
    manifest_missing;
    removed = List.length (List.filter (fun (e : entry) -> e.removed) entries);
    manifest_rewritten;
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
        ("manifest_stale", Int r.manifest_stale);
        ("manifest_missing", Int r.manifest_missing); ("removed", Int r.removed);
        ("manifest_rewritten", Bool r.manifest_rewritten); ("clean", Bool (clean r));
        ("entries", List (List.map entry r.entries)) ])

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "fsck: %d ok, %d torn, %d checksum-mismatch, %d stale-version, %d \
     orphan-tmp@,"
    r.sound r.torn r.checksum_mismatch r.stale_version r.orphan_tmp;
  Format.fprintf ppf "manifest: %d stale, %d missing%s@," r.manifest_stale
    r.manifest_missing
    (if r.manifest_rewritten then " (rewritten)" else "");
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-18s %s%s@,"
        (status_to_string e.status)
        e.path
        (if e.removed then " [removed]" else ""))
    r.entries;
  Format.fprintf ppf "status: %s@]"
    (if clean r then "clean" else "unclean")
