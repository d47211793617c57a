type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  repaired : int;
  writes : int;
  write_failures : int;
}

let stats_to_json s =
  Json.(
    Obj
      [ ("hits", Int s.hits); ("misses", Int s.misses); ("corrupt", Int s.corrupt);
        ("repaired", Int s.repaired); ("writes", Int s.writes);
        ("write_failures", Int s.write_failures) ])

let sub_stats a b =
  { hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    corrupt = a.corrupt - b.corrupt;
    repaired = a.repaired - b.repaired;
    writes = a.writes - b.writes;
    write_failures = a.write_failures - b.write_failures }

(* Process-wide metrics, one registry for every handle: a phase diffs
   two [stats] reads. *)
let m_hits = Obs.Metrics.counter "store.hits"
let m_misses = Obs.Metrics.counter "store.misses"
let m_corrupt = Obs.Metrics.counter "store.corrupt"
let m_repaired = Obs.Metrics.counter "store.repaired"
let m_writes = Obs.Metrics.counter "store.writes"
let m_write_failures = Obs.Metrics.counter "store.write_failures"

type t = {
  root : string;
  lock : Mutex.t;  (* manifest channel + needs_repair table *)
  mutable manifest : out_channel option;
  needs_repair : (string, unit) Hashtbl.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false

let valid_key k =
  String.length k >= 8
  && (let ok = ref true in
      String.iter (fun c -> if not (is_hex c) then ok := false) k;
      !ok)

let check_key k =
  if not (valid_key k) then
    invalid_arg (Printf.sprintf "Store.Disk: invalid key %S" k)

let objects_dir t = Filename.concat t.root "objects"

let manifest_path t = Filename.concat t.root "manifest"

let shard_dir t key =
  Filename.concat
    (Filename.concat (objects_dir t) (String.sub key 0 2))
    (String.sub key 2 2)

let record_path t ~key =
  check_key key;
  Filename.concat (shard_dir t key) (key ^ ".rec")

let open_ ~dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  Io.mkdir_p (Filename.concat dir "objects");
  { root = dir;
    lock = Mutex.create ();
    manifest = None;
    needs_repair = Hashtbl.create 16 }

let dir t = t.root

let stats () =
  let v = Obs.Metrics.counter_value in
  { hits = v m_hits;
    misses = v m_misses;
    corrupt = v m_corrupt;
    repaired = v m_repaired;
    writes = v m_writes;
    write_failures = v m_write_failures }

let close t =
  locked t (fun () ->
      match t.manifest with
      | None -> ()
      | Some oc ->
          t.manifest <- None;
          close_out_noerr oc)

let manifest_channel_locked t =
  match t.manifest with
  | Some oc -> oc
  | None ->
      let oc =
        open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644
          (manifest_path t)
      in
      t.manifest <- Some oc;
      oc

let append_manifest t key =
  locked t (fun () ->
      match
        Io.append_line (manifest_channel_locked t) ~path:(manifest_path t)
          (Record.seal_line key)
      with
      | Ok () | Error _ -> ()  (* advisory: fsck rebuilds it *)
      | exception Sys_error _ -> ())

let mark_needs_repair t key = locked t (fun () -> Hashtbl.replace t.needs_repair key ())

let evict t ~key =
  Obs.Metrics.incr m_corrupt;
  Io.remove_if_exists (record_path t ~key);
  mark_needs_repair t key

let note_corrupt t ~key =
  check_key key;
  evict t ~key

let find t ~key =
  let path = record_path t ~key in
  match Io.read_file path with
  | Error `Enoent ->
      Obs.Metrics.incr m_misses;
      None
  | Error (`Unreadable _) ->
      (* can't even read it: treat as corruption, try to clear it *)
      evict t ~key;
      None
  | Ok raw -> (
      match Record.decode raw with
      | Ok payload ->
          Obs.Metrics.incr m_hits;
          Some payload
      | Error _ ->
          evict t ~key;
          None)

let put t ~key ~payload =
  let dest = record_path t ~key in
  Io.mkdir_p (shard_dir t key);
  let tmp =
    Filename.concat (shard_dir t key)
      (Printf.sprintf "%s.%d.tmp" key (Par.unique_tag ()))
  in
  match Io.commit ~tmp ~dest (Record.encode payload) with
  | Error _ -> Obs.Metrics.incr m_write_failures
  | Ok () ->
      Obs.Metrics.incr m_writes;
      let was_corrupt =
        locked t (fun () ->
            let b = Hashtbl.mem t.needs_repair key in
            if b then Hashtbl.remove t.needs_repair key;
            b)
      in
      if was_corrupt then Obs.Metrics.incr m_repaired;
      append_manifest t key

let object_files t = Io.files_under (objects_dir t)

let manifest_keys t =
  match Io.read_file (manifest_path t) with
  | Error _ -> []
  | Ok data ->
      let seen = Hashtbl.create 64 in
      String.split_on_char '\n' data
      |> List.filter_map (fun line ->
             match Record.unseal_line line with
             | Some key when valid_key key && not (Hashtbl.mem seen key) ->
                 Hashtbl.add seen key ();
                 Some key
             | Some _ | None -> None)

let rewrite_manifest t ~keys =
  close t;
  let content =
    String.concat "" (List.map (fun k -> Record.seal_line k ^ "\n") keys)
  in
  let tmp =
    Filename.concat t.root
      (Printf.sprintf "manifest.%d.tmp" (Par.unique_tag ()))
  in
  match Io.commit ~tmp ~dest:(manifest_path t) content with
  | Ok () | Error _ -> ()
