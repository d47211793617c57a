(* Print the member names of the JSON object at a path of keys in a
   file, one per line.  Exits 1 when the file does not parse or the
   path does not lead to an object.

     json_keys FILE [KEY ...] *)

let () =
  match Array.to_list Sys.argv with
  | _ :: file :: path -> (
      let fail msg =
        prerr_endline (file ^ ": " ^ msg);
        exit 1
      in
      match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
      | Error e -> fail (Json.error_to_string e)
      | Ok v -> (
          match List.fold_left (fun v key -> Option.bind v (Json.mem key)) (Some v) path with
          | Some (Json.Obj members) -> List.iter (fun (k, _) -> print_endline k) members
          | _ -> fail ("no object at " ^ String.concat "." path)))
  | _ ->
      prerr_endline "usage: json_keys FILE [KEY ...]";
      exit 2
