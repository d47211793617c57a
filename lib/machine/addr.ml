type t = int

let null = 0

let add a off = a + off

let diff a b = a - b

let pp ppf a = Format.fprintf ppf "0x%08x" a

let to_string a = Format.asprintf "%a" pp a
