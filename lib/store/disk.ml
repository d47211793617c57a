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
  objects : string;
  lock : Mutex.t;  (* needs_repair table *)
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

let record_path t ~key =
  check_key key;
  Filename.concat t.objects (key ^ ".rec")

(* Where older builds wrote [key]'s record, relative to [objects/]:
   two directory levels on the key's first four characters. *)
let sharded_rel key =
  Filename.concat
    (Filename.concat (String.sub key 0 2) (String.sub key 2 2))
    (key ^ ".rec")

type file_kind = Record_file | Tmp_file | Stray_file

let file_kind rel =
  let base = Filename.basename rel in
  if Filename.check_suffix base ".tmp" then Tmp_file
  else
    match Filename.chop_suffix_opt ~suffix:".rec" base with
    | Some key when valid_key key && (rel = base || rel = sharded_rel key) -> Record_file
    | _ -> Stray_file

let object_path t rel = Filename.concat t.objects rel

let open_ ~dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  let objects = Filename.concat dir "objects" in
  Io.mkdir_p objects;
  { objects;
    lock = Mutex.create ();
    needs_repair = Hashtbl.create 16 }

let stats () =
  let v = Obs.Metrics.counter_value in
  { hits = v m_hits;
    misses = v m_misses;
    corrupt = v m_corrupt;
    repaired = v m_repaired;
    writes = v m_writes;
    write_failures = v m_write_failures }

let mark_needs_repair t key = locked t (fun () -> Hashtbl.replace t.needs_repair key ())

let evict t ~key =
  Obs.Metrics.incr m_corrupt;
  Io.remove_if_exists (record_path t ~key);
  Io.remove_if_exists (object_path t (sharded_rel key));
  mark_needs_repair t key

let note_corrupt t ~key =
  check_key key;
  evict t ~key

(* A key's record file, or else the one an older build wrote. *)
let read_record t ~key =
  match Io.read_file (record_path t ~key) with
  | Error `Enoent -> Io.read_file (object_path t (sharded_rel key))
  | r -> r

let find t ~key =
  match read_record t ~key with
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

(* The tmp file sits beside the record, in the [objects/] that [open_]
   made, so a put makes no directory. *)
let put t ~key ~payload =
  let dest = record_path t ~key in
  let tmp = Printf.sprintf "%s.%d.tmp" (object_path t key) (Par.unique_tag ()) in
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
      if was_corrupt then Obs.Metrics.incr m_repaired

let object_files t = Io.files_under t.objects
