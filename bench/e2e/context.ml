(* The machine context recorded beside every result. *)

let cores () = Domain.recommended_domain_count ()

let read_trimmed path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* The commit checked out in the current directory, read from .git
   directly (no git process, nothing read outside the tree);
   "unknown" outside a repository. *)
let git_rev () =
  let packed name =
    Option.bind (read_trimmed ".git/packed-refs") (fun text ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ hash; r ] when r = name -> Some hash
            | _ -> None)
          (String.split_on_char '\n' text))
  in
  match read_trimmed ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let name = String.sub head 5 (String.length head - 5) in
      match read_trimmed (Filename.concat ".git" name) with
      | Some hash -> hash
      | None -> Option.value ~default:"unknown" (packed name))
  | Some hash -> hash

let load_average () =
  match Option.map (String.split_on_char ' ') (read_trimmed "/proc/loadavg") with
  | Some (one :: _) -> Option.value ~default:0. (float_of_string_opt one)
  | _ -> 0.

let to_json ~dfsm ~jobs ~seed =
  Json.Obj
    [ ("cores", Json.Num (float_of_int (cores ())));
      ("jobs", Json.Num (float_of_int jobs));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
      ("dfsm_md5", Json.Str (Digest.to_hex (Digest.file dfsm)));
      ("seed", Json.Num (float_of_int seed));
      ("load_average", Json.Num (load_average ())) ]
