(* The retired flat-[Bytes] process memory, kept as the differential
   oracle for the paged {!Machine.Memory}: one zero-filled buffer
   covers the whole range, so every access is a plain [Bytes] call at
   [a - base].  The only change from the retired code is
   [read_cstring]'s check below [base], which now raises the typed
   [Fault] the paged version raises instead of [Bytes.get]'s
   [Invalid_argument]. *)

type fault_kind = Read | Write

exception Fault of { addr : Machine.Addr.t; kind : fault_kind }

type t = { data : Bytes.t; base : Machine.Addr.t }

let create ~base ~size =
  if size <= 0 then invalid_arg "Memory.create: size must be positive";
  { data = Bytes.make size '\000'; base }

let base t = t.base

let size t = Bytes.length t.data

let limit t = t.base + Bytes.length t.data

let in_bounds t a n =
  n >= 0 && a >= t.base && a + n <= limit t

let check t a n kind = if not (in_bounds t a n) then raise (Fault { addr = a; kind })

let offset t a = a - t.base

let read_u8 t a =
  check t a 1 Read;
  Char.code (Bytes.get t.data (offset t a))

let write_u8 t a v =
  check t a 1 Write;
  Bytes.set t.data (offset t a) (Char.chr (v land 0xff))

let read_i32 t a =
  check t a 4 Read;
  let v = Int32.to_int (Bytes.get_int32_le t.data (offset t a)) in
  v

let write_i32 t a v =
  check t a 4 Write;
  Bytes.set_int32_le t.data (offset t a) (Int32.of_int v)

let read_bytes t a n =
  check t a n Read;
  Bytes.sub_string t.data (offset t a) n

let write_string t a s =
  check t a (String.length s) Write;
  let s = Fault.Hooks.mangle s in
  Bytes.blit_string s 0 t.data (offset t a) (String.length s)

let fill t a n c =
  check t a n Write;
  Bytes.fill t.data (offset t a) n c

let read_cstring t a =
  if a < t.base then raise (Fault { addr = a; kind = Read });
  let lim = limit t in
  let rec scan i =
    if i >= lim then raise (Fault { addr = i; kind = Read })
    else if Bytes.get t.data (offset t i) = '\000' then i
    else scan (i + 1)
  in
  let stop = scan a in
  read_bytes t a (stop - a)

let snapshot t = Bytes.to_string t.data

let diff_ranges ~before ~after ~base =
  if String.length before <> String.length after then
    invalid_arg "Memory.diff_ranges: snapshots of different sizes";
  let n = String.length before in
  let rec collect i acc =
    if i >= n then List.rev acc
    else if before.[i] = after.[i] then collect (i + 1) acc
    else
      let rec run j = if j < n && before.[j] <> after.[j] then run (j + 1) else j in
      let stop = run i in
      collect stop ((base + i, stop - i) :: acc)
  in
  collect 0 []
