type t = Bytes.t

let create n ~fill = Bytes.make n fill

let length = Bytes.length

let set_i32 t ~off v = Bytes.set_int32_le t off (Int32.of_int v)

let to_string = Bytes.to_string

let repeat s n =
  let b = Buffer.create (String.length s * n) in
  for _ = 1 to n do Buffer.add_string b s done;
  Buffer.contents b

let pattern n =
  let b = Buffer.create n in
  let letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  let i = ref 0 in
  while Buffer.length b < n do
    let block = Printf.sprintf "%c%c%02d" letters.[!i / 26 mod 26] letters.[!i mod 26] (!i mod 100) in
    Buffer.add_string b block;
    incr i
  done;
  Buffer.sub b 0 n
