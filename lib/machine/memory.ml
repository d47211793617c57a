type fault_kind = Read | Write

exception Fault of { addr : Addr.t; kind : fault_kind }

(* Pages are indexed by offset from [base].  Every slot starts out as
   [zero_page], which all memories share and nothing ever writes. *)
let page_bits = 12

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

type t = { pages : Bytes.t array; base : Addr.t; size : int }

let create ~base ~size =
  if size <= 0 then invalid_arg "Memory.create: size must be positive";
  { pages = Array.make ((size + page_mask) lsr page_bits) zero_page; base; size }

let base t = t.base

let size t = t.size

let limit t = t.base + t.size

let in_bounds t a n =
  n >= 0 && a >= t.base && a + n <= limit t

let check t a n kind = if not (in_bounds t a n) then raise (Fault { addr = a; kind })

let offset t a = a - t.base

(* The page holding offset [o], for reading. *)
let page t o = t.pages.(o lsr page_bits)

(* The page holding offset [o], for writing: given its own storage if
   it is still the shared zero page. *)
let writable t o =
  let i = o lsr page_bits in
  let p = t.pages.(i) in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    p
  end

(* Copies between the pages and a buffer, and fills, walk their range
   one in-page run at a time.  They take everything as arguments, so a
   call allocates no closure: the interpreter's recv loop writes
   through [write_string] on every iteration. *)
let rec gather_into t o b pos n =
  if n > 0 then begin
    let po = o land page_mask in
    let k = min n (page_size - po) in
    Bytes.blit (page t o) po b pos k;
    gather_into t (o + k) b (pos + k) (n - k)
  end

let gather t o n =
  let b = Bytes.create n in
  gather_into t o b 0 n;
  b

let rec scatter t o s pos n =
  if n > 0 then begin
    let po = o land page_mask in
    let k = min n (page_size - po) in
    Bytes.blit_string s pos (writable t o) po k;
    scatter t (o + k) s (pos + k) (n - k)
  end

(* A zero fill of a page that is still the zero page changes nothing,
   so it leaves the page shared ([Heap.calloc] fills fresh chunks). *)
let rec fill_runs t o n c =
  if n > 0 then begin
    let po = o land page_mask in
    let k = min n (page_size - po) in
    if not (c = '\000' && page t o == zero_page) then Bytes.fill (writable t o) po k c;
    fill_runs t (o + k) (n - k) c
  end

let read_u8 t a =
  check t a 1 Read;
  let o = offset t a in
  Char.code (Bytes.get (page t o) (o land page_mask))

let write_u8 t a v =
  check t a 1 Write;
  let o = offset t a in
  Bytes.set (writable t o) (o land page_mask) (Char.chr (v land 0xff))

let read_i32 t a =
  check t a 4 Read;
  let o = offset t a in
  let po = o land page_mask in
  let v =
    if po <= page_size - 4 then Bytes.get_int32_le (page t o) po
    else Bytes.get_int32_le (gather t o 4) 0
  in
  Int32.to_int v

let write_i32 t a v =
  check t a 4 Write;
  let o = offset t a in
  let po = o land page_mask in
  if po <= page_size - 4 then Bytes.set_int32_le (writable t o) po (Int32.of_int v)
  else begin
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    scatter t o (Bytes.unsafe_to_string b) 0 4
  end

let read_bytes t a n =
  check t a n Read;
  Bytes.unsafe_to_string (gather t (offset t a) n)

let write_string t a s =
  check t a (String.length s) Write;
  let s = Fault.Hooks.mangle s in
  scatter t (offset t a) s 0 (String.length s)

let fill t a n c =
  check t a n Write;
  fill_runs t (offset t a) n c

let read_cstring t a =
  if a < t.base then raise (Fault { addr = a; kind = Read });
  let lim = limit t in
  let rec scan i =
    if i >= lim then raise (Fault { addr = i; kind = Read })
    else
      let o = offset t i in
      if Bytes.get (page t o) (o land page_mask) = '\000' then i else scan (i + 1)
  in
  let stop = scan a in
  read_bytes t a (stop - a)

let snapshot t = Bytes.unsafe_to_string (gather t 0 t.size)

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
