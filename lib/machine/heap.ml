exception Corruption_detected of { chunk : Addr.t }

exception Double_free of { user : Addr.t }

let header_size = 8

let min_chunk = 16

let bk_field_offset = 12

type t = {
  mem : Memory.t;
  base : Addr.t;          (* bin sentinel lives at [base] *)
  heap_limit : Addr.t;
  safe_unlink : bool;
  mutable top : Addr.t;   (* start of the unallocated wilderness *)
}

let memory t = t.mem

let chunk_of_user user = user - header_size

let user_of_chunk chunk = chunk + header_size

let fd_addr ~chunk = chunk + 8

let bk_addr ~chunk = chunk + bk_field_offset

let size_field t chunk = Memory.read_i32 t.mem (chunk + 4)

let chunk_size t ~chunk = size_field t chunk land lnot 1

let is_in_use t ~chunk = size_field t chunk land 1 = 1

let set_size t chunk ~size ~in_use =
  Memory.write_i32 t.mem (chunk + 4) (size lor (if in_use then 1 else 0))

let set_prev_size t chunk v = Memory.write_i32 t.mem chunk v

let fd t chunk = Memory.read_i32 t.mem (fd_addr ~chunk)

let bk t chunk = Memory.read_i32 t.mem (bk_addr ~chunk)

let set_fd t chunk v = Memory.write_i32 t.mem (fd_addr ~chunk) v

let set_bk t chunk v = Memory.write_i32 t.mem (bk_addr ~chunk) v

let bin t = t.base

let create mem ~base ~size ~safe_unlink =
  if size < min_chunk * 2 then invalid_arg "Heap.create: region too small";
  if not (Memory.in_bounds mem base size) then
    invalid_arg "Heap.create: region outside memory";
  let t = { mem; base; heap_limit = base + size; safe_unlink; top = base + min_chunk } in
  (* Empty circular free list: the bin points to itself. *)
  set_size t (bin t) ~size:min_chunk ~in_use:true;
  set_fd t (bin t) (bin t);
  set_bk t (bin t) (bin t);
  t

let align8 n = (n + 7) land lnot 7

let request_size n = max min_chunk (align8 (n + header_size))

(* The historically unsafe unlink macro: FD->bk = BK; BK->fd = FD.
   With [safe_unlink] the glibc 2.3.4-era integrity check runs first. *)
let unlink t chunk =
  let fd_v = fd t chunk and bk_v = bk t chunk in
  if t.safe_unlink then begin
    let ok =
      Memory.in_bounds t.mem fd_v min_chunk
      && Memory.in_bounds t.mem bk_v min_chunk
      && bk t fd_v = chunk
      && fd t bk_v = chunk
    in
    if not ok then raise (Corruption_detected { chunk })
  end;
  Memory.write_i32 t.mem (bk_addr ~chunk:fd_v) bk_v;
  Memory.write_i32 t.mem (fd_addr ~chunk:bk_v) fd_v

let insert_free t chunk =
  let head = fd t (bin t) in
  set_fd t chunk head;
  set_bk t chunk (bin t);
  set_bk t head chunk;
  set_fd t (bin t) chunk

let iter_free_bounded t f =
  let rec go cursor steps =
    if steps > 0 && cursor <> bin t
       && Memory.in_bounds t.mem cursor min_chunk
    then begin
      f cursor;
      go (fd t cursor) (steps - 1)
    end
  in
  go (fd t (bin t)) 1024

let free_list t =
  let acc = ref [] in
  iter_free_bounded t (fun c -> acc := c :: !acc);
  List.rev !acc

let free_list_consistent t =
  let ok = ref true in
  iter_free_bounded t (fun c ->
      let fd_v = fd t c and bk_v = bk t c in
      let link_ok probe =
        Memory.in_bounds t.mem probe min_chunk in
      if not (link_ok fd_v && link_ok bk_v && bk t fd_v = c && fd t bk_v = c)
      then ok := false);
  !ok

let split_or_take t chunk ~csize ~req =
  let remainder = csize - req in
  if remainder >= min_chunk then begin
    let rest = chunk + req in
    set_size t chunk ~size:req ~in_use:true;
    set_size t rest ~size:remainder ~in_use:false;
    set_prev_size t rest req;
    insert_free t rest
  end
  else set_size t chunk ~size:csize ~in_use:true

let find_fit t req =
  let found = ref None in
  iter_free_bounded t (fun c ->
      if !found = None && chunk_size t ~chunk:c >= req then found := Some c);
  !found

let malloc t n =
  if n <= 0 then None
  else
    let req = request_size n in
    if Fault.Hooks.heap_alloc_fails ~requested:req then
      Fault.Condition.fail (Fault.Condition.Heap_exhausted { requested = req });
    match find_fit t req with
    | Some chunk ->
        unlink t chunk;
        split_or_take t chunk ~csize:(chunk_size t ~chunk) ~req;
        Some (user_of_chunk chunk)
    | None ->
        if t.top + req <= t.heap_limit then begin
          let chunk = t.top in
          t.top <- t.top + req;
          set_prev_size t chunk 0;
          set_size t chunk ~size:req ~in_use:true;
          Some (user_of_chunk chunk)
        end
        else None

let calloc t ~count ~size =
  (* 32-bit product, as computed by the C code of the era (no overflow
     check existed before glibc 2.1.92). *)
  let bytes = Int32.to_int (Int32.mul (Int32.of_int count) (Int32.of_int size)) in
  match malloc t bytes with
  | None -> None
  | Some user ->
      Memory.fill t.mem user bytes '\000';
      Some user

(* The physically following chunk, if still inside the allocated
   area. *)
let next_chunk t ~chunk =
  let next = chunk + chunk_size t ~chunk in
  if next >= chunk + min_chunk && next + min_chunk <= t.top then Some next else None

let free t user =
  let chunk = chunk_of_user user in
  if not (is_in_use t ~chunk) then raise (Double_free { user });
  let csize = ref (chunk_size t ~chunk) in
  (* Forward coalesce: if the physically next chunk is free, unlink it
     and absorb it.  When an overflow has rewritten that chunk's
     fd/bk, this unlink IS the attacker's arbitrary 4-byte write. *)
  (match next_chunk t ~chunk with
   | Some next when not (is_in_use t ~chunk:next) ->
       unlink t next;
       csize := !csize + chunk_size t ~chunk:next
   | Some _ | None -> ());
  set_size t chunk ~size:!csize ~in_use:false;
  insert_free t chunk

let usable_size t ~user = chunk_size t ~chunk:(chunk_of_user user) - header_size

let realloc t user n =
  match malloc t n with
  | None -> None
  | Some fresh ->
      let copy = min (usable_size t ~user) n in
      let bytes = Memory.read_bytes t.mem user copy in
      Memory.write_string t.mem fresh bytes;
      free t user;
      Some fresh

type issue =
  | Bad_chunk_size of { chunk : Addr.t; size : int }
  | Chunks_overrun_top of { chunk : Addr.t }
  | Free_bit_mismatch of { chunk : Addr.t }
  | Broken_free_link of { chunk : Addr.t }

let validate t =
  let issues = ref [] in
  let push i = issues := i :: !issues in
  (* Pass 1: the physical arena must tile exactly up to [top]. *)
  let free_set = free_list t in
  let rec walk chunk =
    if chunk < t.top then begin
      let size = chunk_size t ~chunk in
      if size < min_chunk || size land 7 <> 0 then push (Bad_chunk_size { chunk; size })
      else if chunk + size > t.top then push (Chunks_overrun_top { chunk })
      else begin
        let on_list = List.mem chunk free_set in
        let marked_free = not (is_in_use t ~chunk) in
        if chunk <> bin t && marked_free <> on_list then
          push (Free_bit_mismatch { chunk });
        walk (chunk + size)
      end
    end
  in
  walk t.base;
  (* Pass 2: the free list's links must be mutually consistent. *)
  List.iter
    (fun chunk ->
       let link_ok probe = Memory.in_bounds t.mem probe min_chunk in
       let fd_v = fd t chunk and bk_v = bk t chunk in
       if not (link_ok fd_v && link_ok bk_v && bk t fd_v = chunk && fd t bk_v = chunk)
       then push (Broken_free_link { chunk }))
    free_set;
  List.rev !issues
