let strcpy mem ~dst s =
  (* True C semantics: copy stops at the first NUL in the source. *)
  let s = match String.index_opt s '\000' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  Memory.write_string mem dst s;
  Memory.write_u8 mem (dst + String.length s) 0

let strncpy mem ~dst s ~n =
  let copy = min n (String.length s) in
  Memory.write_string mem dst (String.sub s 0 copy);
  if copy < n then Memory.write_u8 mem (dst + copy) 0

let strlen mem a = String.length (Memory.read_cstring mem a)

let strcat mem ~dst s =
  let existing = strlen mem dst in
  strcpy mem ~dst:(dst + existing) s
