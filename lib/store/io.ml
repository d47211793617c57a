type write_error =
  | Refused of { path : string; errno : string }
  | Crashed of { path : string }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | data -> Ok data
  | exception Sys_error msg ->
      if Sys.file_exists path then Error (`Unreadable msg) else Error `Enoent

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ -> ()  (* lost a race with a concurrent mkdir *)
  end

let write_all path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Apply an injected fault to the bytes of one write.  [`Commit]
   variants still reach disk (silent corruption, the checksum's
   problem); the others abort the write in the stated way. *)
let perturb data =
  match Fault.Hooks.store_write_fault ~len:(String.length data) with
  | None -> `Commit data
  | Some (Fault.Injector.Io_torn keep) -> `Commit (String.sub data 0 keep)
  | Some (Fault.Injector.Io_flip (off, bit)) ->
      let b = Bytes.of_string data in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
      `Commit (Bytes.to_string b)
  | Some (Fault.Injector.Io_error errno) -> `Refuse errno
  | Some Fault.Injector.Io_crash -> `Crash

let commit ~tmp ~dest data =
  match perturb data with
  | `Refuse errno ->
      remove_if_exists tmp;
      Error (Refused { path = dest; errno })
  | `Crash -> (
      (* the tmp write itself completed; the process "died" before the
         rename, so the destination never changes and the tmp strands *)
      match write_all tmp data with
      | () -> Error (Crashed { path = dest })
      | exception Sys_error errno ->
          remove_if_exists tmp;
          Error (Refused { path = dest; errno }))
  | `Commit data -> (
      match
        write_all tmp data;
        Sys.rename tmp dest
      with
      | () -> Ok ()
      | exception Sys_error errno ->
          remove_if_exists tmp;
          Error (Refused { path = dest; errno }))

let append_line oc ~path line =
  match perturb (line ^ "\n") with
  | `Refuse errno -> Error (Refused { path; errno })
  | `Crash -> Error (Crashed { path })
  | `Commit data -> (
      match
        Out_channel.output_string oc data;
        Out_channel.flush oc
      with
      | () -> Ok ()
      | exception Sys_error errno -> Error (Refused { path; errno }))

let files_under dir =
  let rec walk rel acc =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    match Sys.readdir abs with
    | names ->
        Array.fold_left
          (fun acc name ->
            let rel = if rel = "" then name else Filename.concat rel name in
            let abs = Filename.concat dir rel in
            if Sys.is_directory abs then walk rel acc else rel :: acc)
          acc names
    | exception Sys_error _ -> acc
  in
  List.sort compare (walk "" [])
