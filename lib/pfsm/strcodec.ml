let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then
        match hex_val s.[i + 1], hex_val s.[i + 2] with
        | Some hi, Some lo ->
            Buffer.add_char b (Char.chr ((hi * 16) + lo));
            go (i + 3)
        | _, _ ->
            Buffer.add_char b s.[i];
            go (i + 1)
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let unreserved c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '~' | '/' | '-' -> true
  | _ -> false

let percent_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       if unreserved c then Buffer.add_char b c
       else Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c)))
    s;
  Buffer.contents b

(* A pass either decodes an escape, turning three bytes into one, or
   returns its input unchanged, and then so would every later pass:
   stop there.  At most [String.length s / 2] passes do work. *)
let percent_decode_n n s =
  let rec loop k acc =
    if k <= 0 then acc
    else
      let next = percent_decode acc in
      if String.length next = String.length acc then acc else loop (k - 1) next
  in
  loop n s

let negated_decimal s start =
  let n = String.length s in
  let rec go i acc =
    if i < n && s.[i] >= '0' && s.[i] <= '9' then
      let d = Char.code s.[i] - Char.code '0' in
      if acc < min_int / 10 || acc * 10 < min_int + d then None
      else go (i + 1) ((acc * 10) - d)
    else Some (i, acc)
  in
  go start 0

let string_literal s start =
  let n = String.length s in
  let rec close j =
    if j >= n then Error "unterminated string"
    else
      match s.[j] with
      | '"' -> (
          match Scanf.unescaped (String.sub s (start + 1) (j - start - 1)) with
          | body -> Ok (j + 1, body)
          | exception Scanf.Scan_failure _ -> Error "bad escape in string literal")
      | '\\' -> close (j + 2)
      | _ -> close (j + 1)
  in
  close (start + 1)

let int32_min = -0x8000_0000

let int32_max = 0x7fff_ffff

let saturating_push acc digit =
  if acc > (max_int - digit) / 10 then max_int else (acc * 10) + digit

let parse_digits s start =
  let n = String.length s in
  let rec go i acc seen =
    if i < n then
      match s.[i] with
      | '0' .. '9' -> go (i + 1) (saturating_push acc (Char.code s.[i] - Char.code '0')) true
      | _ -> (acc, seen, i)
    else (acc, seen, i)
  in
  go start 0 false

let parse_integer s =
  let n = String.length s in
  if n = 0 then None
  else
    let negative, start =
      match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
    in
    let magnitude, seen, stop = parse_digits s start in
    if (not seen) || stop <> n then None
    else Some (if negative then -magnitude else magnitude)

let wrap32 v =
  let m = v land 0xffff_ffff in
  if m > int32_max then m - 0x1_0000_0000 else m

let fits_int32 v = v >= int32_min && v <= int32_max

let atoi32 s =
  let n = String.length s in
  let start =
    let rec skip i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then skip (i + 1) else i in
    skip 0
  in
  let negative, start =
    if start < n then
      match s.[start] with
      | '-' -> (true, start + 1)
      | '+' -> (false, start + 1)
      | _ -> (false, start)
    else (false, start)
  in
  let magnitude, _, _ = parse_digits s start in
  wrap32 (if negative then -magnitude else magnitude)

let conversion_chars = "diouxXeEfgGcspn%"

let format_directives s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if s.[i] = '%' then
      (* Skip flags, width and precision to find the conversion char. *)
      let rec conv j =
        if j >= n then None
        else if String.contains conversion_chars s.[j] then Some j
        else
          match s.[j] with
          | '0' .. '9' | '-' | '+' | ' ' | '#' | '.' | 'l' | 'h' -> conv (j + 1)
          | _ -> None
      in
      (match conv (i + 1) with
       | Some j when s.[j] <> '%' ->
           go (j + 1) (Printf.sprintf "%%%c" s.[j] :: acc)
       | Some j -> go (j + 1) acc
       | None -> go (i + 1) acc)
    else go (i + 1) acc
  in
  go 0 []

let contains_format_directive s = format_directives s <> []
