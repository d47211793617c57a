(* Tests for the machine substrate: memory, heap (including the
   unlink attack primitive), stack, GOT, C strings, payloads. *)

module M = Machine.Memory
module H = Machine.Heap

let base = 0x1000

let mem () = M.create ~base ~size:0x10000

(* ---- memory ------------------------------------------------------ *)

let test_mem_roundtrip_u8 () =
  let m = mem () in
  M.write_u8 m base 0xab;
  Alcotest.(check int) "u8 roundtrip" 0xab (M.read_u8 m base);
  M.write_u8 m base 0x1ff;
  Alcotest.(check int) "u8 truncates" 0xff (M.read_u8 m base)

let test_mem_roundtrip_i32 () =
  let m = mem () in
  List.iter
    (fun v ->
       M.write_i32 m (base + 8) v;
       Alcotest.(check int) (string_of_int v) v (M.read_i32 m (base + 8)))
    [ 0; 1; -1; 0x7fff_ffff; -0x8000_0000; 12345; -98765 ]

let test_mem_i32_wraps () =
  let m = mem () in
  M.write_i32 m base 0x1_0000_0001;
  Alcotest.(check int) "wraps to 32 bits" 1 (M.read_i32 m base)

let test_mem_little_endian () =
  let m = mem () in
  M.write_i32 m base 0x04030201;
  Alcotest.(check int) "byte 0" 1 (M.read_u8 m base);
  Alcotest.(check int) "byte 3" 4 (M.read_u8 m (base + 3))

let test_mem_faults () =
  let m = mem () in
  let check_fault name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": expected fault")
    | exception M.Fault _ -> ()
  in
  check_fault "read below" (fun () -> M.read_u8 m (base - 1));
  check_fault "read above" (fun () -> M.read_u8 m (M.limit m));
  check_fault "write above" (fun () -> M.write_i32 m (M.limit m - 3) 0);
  check_fault "string over edge" (fun () -> M.write_string m (M.limit m - 2) "abc")

let test_mem_cstring () =
  let m = mem () in
  M.write_string m base "hello\000world";
  Alcotest.(check string) "stops at NUL" "hello" (M.read_cstring m base)

let test_mem_fill_and_read_bytes () =
  let m = mem () in
  M.fill m base 5 'x';
  Alcotest.(check string) "fill" "xxxxx" (M.read_bytes m base 5)

let test_mem_diff_ranges () =
  let m = mem () in
  let before = M.snapshot m in
  M.write_u8 m (base + 10) 1;
  M.write_u8 m (base + 11) 2;
  M.write_u8 m (base + 100) 3;
  let after = M.snapshot m in
  Alcotest.(check (list (pair int int)))
    "two ranges"
    [ (base + 10, 2); (base + 100, 1) ]
    (M.diff_ranges ~before ~after ~base)

let test_mem_cstring_below_base () =
  (* Used to escape as Bytes.get's Invalid_argument. *)
  let m = mem () in
  match M.read_cstring m (base - 1) with
  | s -> Alcotest.failf "read %S below base" s
  | exception M.Fault { addr; kind = M.Read } ->
      Alcotest.(check int) "fault address" (base - 1) addr
  | exception M.Fault { kind = M.Write; _ } -> Alcotest.fail "write fault"

(* Pages are 4 KiB: none is allocated by an access that faults or by
   a zero fill of pages never written, and a write allocates its page. *)
let test_mem_pages_on_write () =
  let page = 4096 in
  let m = M.create ~base ~size:(64 * page) in
  let long = String.make (3 * page) 'x' in
  let allocated f = snd (Obs.Allocs.bytes_of f) in
  let faulting () =
    List.iter
      (fun f -> try f () with M.Fault _ -> ())
      [ (fun () -> M.write_string m (M.limit m - page) long);
        (fun () -> M.fill m (base - 1) (2 * page) 'y');
        (fun () -> M.write_i32 m (M.limit m - 2) 7) ]
  in
  Alcotest.(check bool) "faulting writes allocate no page" true
    (allocated faulting < float_of_int page);
  Alcotest.(check bool) "zero fill allocates no page" true
    (allocated (fun () -> M.fill m base (64 * page) '\000') < float_of_int page);
  Alcotest.(check bool) "a write allocates its page" true
    (allocated (fun () -> M.write_u8 m (base + (5 * page)) 1) >= float_of_int page);
  Alcotest.(check string) "zero fill of a written page zeroes it" "\000\000"
    (M.fill m (base + (5 * page)) 2 '\000';
     M.read_bytes m (base + (5 * page)) 2)

(* ---- paged memory against the flat oracle ------------------------ *)

type op =
  | Read_u8 of int
  | Write_u8 of int * int
  | Read_i32 of int
  | Write_i32 of int * int
  | Read_bytes of int * int
  | Write_string of int * string
  | Fill of int * int * char
  | Read_cstring of int
  | In_bounds of int * int

type result =
  | Unit
  | Int of int
  | Str of string
  | Bool of bool
  | Faulted of { addr : int; write : bool }
  | Raised of string

module Replay (X : sig
    type t
    type fault_kind = Read | Write
    exception Fault of { addr : int; kind : fault_kind }
    val create : base:int -> size:int -> t
    val read_u8 : t -> int -> int
    val write_u8 : t -> int -> int -> unit
    val read_i32 : t -> int -> int
    val write_i32 : t -> int -> int -> unit
    val read_bytes : t -> int -> int -> string
    val write_string : t -> int -> string -> unit
    val fill : t -> int -> int -> char -> unit
    val read_cstring : t -> int -> string
    val in_bounds : t -> int -> int -> bool
    val snapshot : t -> string
  end) =
struct
  let step m op =
    match
      (match op with
       | Read_u8 a -> Int (X.read_u8 m a)
       | Write_u8 (a, v) -> X.write_u8 m a v; Unit
       | Read_i32 a -> Int (X.read_i32 m a)
       | Write_i32 (a, v) -> X.write_i32 m a v; Unit
       | Read_bytes (a, n) -> Str (X.read_bytes m a n)
       | Write_string (a, s) -> X.write_string m a s; Unit
       | Fill (a, n, c) -> X.fill m a n c; Unit
       | Read_cstring a -> Str (X.read_cstring m a)
       | In_bounds (a, n) -> Bool (X.in_bounds m a n))
    with
    | r -> r
    | exception X.Fault { addr; kind } -> Faulted { addr; write = kind = X.Write }
    | exception e -> Raised (Printexc.to_string e)

  (* Every result, then the final contents. *)
  let run ~base ~size ops =
    let m = X.create ~base ~size in
    let results = List.map (step m) ops in
    (results, X.snapshot m)
end

module Paged = Replay (M)
module Flat = Replay (Memory_ref)

let page = 4096

(* Random (base, size) pairs, mostly with a partial last page, and
   operations aimed at page boundaries (counted from [base]), at the
   limit and below [base], with negative, small and multi-page
   lengths.  Long fills of a non-NUL byte give [read_cstring] strings
   that run across pages and off the end. *)
let gen_case =
  let open QCheck.Gen in
  let* base = int_range 0 0x30000 in
  let* pages = int_range 0 3 in
  let* rest = frequency [ (9, int_range 1 (page - 1)); (1, return 0) ] in
  let size = max 1 ((pages * page) + rest) in
  let limit = base + size in
  let addr =
    frequency
      [ (4, int_range base (limit - 1));
        (4,
         map2 (fun k d -> base + (k * page) + d) (int_range 1 (pages + 1))
           (int_range (-5) 4));
        (2, map (fun d -> limit + d) (int_range (-6) 2));
        (1, map (fun d -> base - d) (int_range 1 8)) ]
  in
  let len =
    frequency
      [ (1, int_range (-3) (-1)); (5, int_range 0 12); (2, int_range 0 ((2 * page) + 100)) ]
  in
  let byte = frequency [ (1, return '\000'); (4, oneofl [ 'A'; 'b'; '\xff' ]) ] in
  let str =
    string_size ~gen:byte
      (frequency [ (5, int_range 0 12); (1, int_range 0 ((2 * page) + 100)) ])
  in
  let i32 =
    oneof
      [ int_range (-0x1_0000_0000) 0x1_0000_0000;
        oneofl [ 0; -1; 0x7fff_ffff; -0x8000_0000; max_int; min_int ] ]
  in
  let op =
    frequency
      [ (2, map (fun a -> Read_u8 a) addr);
        (2, map2 (fun a v -> Write_u8 (a, v)) addr (int_range (-300) 300));
        (3, map (fun a -> Read_i32 a) addr);
        (3, map2 (fun a v -> Write_i32 (a, v)) addr i32);
        (2, map2 (fun a n -> Read_bytes (a, n)) addr len);
        (3, map2 (fun a s -> Write_string (a, s)) addr str);
        (2, map3 (fun a n c -> Fill (a, n, c)) addr len (oneofl [ '\000'; 'A' ]));
        (3, map (fun a -> Read_cstring a) addr);
        (1, map2 (fun a n -> In_bounds (a, n)) addr len) ]
  in
  let* ops = list_size (int_range 1 40) op in
  return (base, size, ops)

let print_case (base, size, ops) =
  let s x = if String.length x <= 16 then Printf.sprintf "%S" x
    else Printf.sprintf "<%d bytes>" (String.length x) in
  let op = function
    | Read_u8 a -> Printf.sprintf "read_u8 %#x" a
    | Write_u8 (a, v) -> Printf.sprintf "write_u8 %#x %d" a v
    | Read_i32 a -> Printf.sprintf "read_i32 %#x" a
    | Write_i32 (a, v) -> Printf.sprintf "write_i32 %#x %d" a v
    | Read_bytes (a, n) -> Printf.sprintf "read_bytes %#x %d" a n
    | Write_string (a, x) -> Printf.sprintf "write_string %#x %s" a (s x)
    | Fill (a, n, c) -> Printf.sprintf "fill %#x %d %C" a n c
    | Read_cstring a -> Printf.sprintf "read_cstring %#x" a
    | In_bounds (a, n) -> Printf.sprintf "in_bounds %#x %d" a n
  in
  Printf.sprintf "base %#x size %d:\n  %s" base size (String.concat "\n  " (List.map op ops))

(* With a bitflip plan installed each side runs under its own injector
   of the same plan, so [write_string]'s mangling draws the same flips
   and records the same events on both. *)
let prop_paged_matches_flat ~plan =
  let name =
    match plan with
    | None -> "memory: paged = flat oracle"
    | Some p -> "memory: paged = flat oracle under " ^ p.Fault.Plan.name
  in
  QCheck.Test.make ~name ~count:300 (QCheck.make ~print:print_case gen_case)
    (fun (base, size, ops) ->
       let under f =
         match plan with
         | None -> (f (), [])
         | Some p -> Fault.Hooks.run p f
       in
       let paged = under (fun () -> Paged.run ~base ~size ops) in
       let flat = under (fun () -> Flat.run ~base ~size ops) in
       paged = flat)

(* ---- heap -------------------------------------------------------- *)

let heap ?(safe_unlink = false) () =
  let m = mem () in
  (m, H.create m ~base:(base + 0x100) ~size:0x8000 ~safe_unlink)

let get = function Some x -> x | None -> Alcotest.fail "allocation failed"

let test_heap_malloc_distinct () =
  let _, h = heap () in
  let a = get (H.malloc h 100) in
  let b = get (H.malloc h 100) in
  Alcotest.(check bool) "distinct chunks" true (a <> b);
  Alcotest.(check bool) "no overlap" true (abs (a - b) >= 100)

let test_heap_usable_size () =
  let _, h = heap () in
  let a = get (H.malloc h 100) in
  Alcotest.(check bool) "usable >= requested" true (H.usable_size h ~user:a >= 100)

let test_heap_malloc_rejects_nonpositive () =
  let _, h = heap () in
  Alcotest.(check (option int)) "zero" None (H.malloc h 0);
  Alcotest.(check (option int)) "negative" None (H.malloc h (-8))

let test_heap_calloc_zeroes () =
  let m, h = heap () in
  let a = get (H.malloc h 64) in
  M.fill m a 64 'Z';
  H.free h a;
  let b = get (H.calloc h ~count:64 ~size:1) in
  Alcotest.(check string) "zeroed" (String.make 64 '\000') (M.read_bytes m b 64)

let test_heap_free_then_reuse () =
  let _, h = heap () in
  let a = get (H.malloc h 256) in
  H.free h a;
  let b = get (H.malloc h 200) in
  Alcotest.(check int) "first fit reuses the freed chunk" a b

let test_heap_split_leaves_free_remainder () =
  let _, h = heap () in
  let a = get (H.malloc h 1024) in
  H.free h a;
  let b = get (H.malloc h 100) in
  Alcotest.(check int) "reused" a b;
  (* The remainder of the split must be back on the free list. *)
  Alcotest.(check int) "one free chunk" 1 (List.length (H.free_list h));
  Alcotest.(check bool) "list consistent" true (H.free_list_consistent h)

let test_heap_double_free_detected () =
  let _, h = heap () in
  let a = get (H.malloc h 64) in
  H.free h a;
  (match H.free h a with
   | _ -> Alcotest.fail "double free not detected"
   | exception H.Double_free _ -> ())

let test_heap_forward_coalesce () =
  let _, h = heap () in
  let a = get (H.malloc h 128) in
  let b = get (H.malloc h 128) in
  let _guard = get (H.malloc h 16) in
  H.free h b;
  H.free h a;
  (* a coalesced with b: a single free chunk able to hold both. *)
  let chunk = H.chunk_of_user a in
  Alcotest.(check bool) "merged size" true
    (H.chunk_size h ~chunk >= 2 * 128);
  Alcotest.(check bool) "list consistent" true (H.free_list_consistent h)

(* The attack primitive of Figure 4: overflow a buffer into the next
   (free) chunk's fd/bk, then free the buffer; the unlink writes an
   attacker value at an attacker address. *)
let unlink_attack ~safe_unlink () =
  let m, h = heap ~safe_unlink () in
  let big = get (H.malloc h 2048) in
  H.free h big;
  let victim = get (H.malloc h 128) in        (* split: free B follows *)
  Alcotest.(check int) "reused" big victim;
  let usable = H.usable_size h ~user:victim in
  let b_chunk = victim + usable in
  let target = base + 0x20 in  (* attacker-chosen address *)
  (* The attacker-chosen value must itself be a mapped address: the
     unlink's mirror write (BK->fd = FD) dereferences it, which is
     why real exploits point bk at mapped shellcode. *)
  let value = base + 0x40 in
  M.write_i32 m (H.fd_addr ~chunk:b_chunk) (target - H.bk_field_offset);
  M.write_i32 m (H.bk_addr ~chunk:b_chunk) value;
  (m, h, victim, target, value)

let test_heap_unlink_attack () =
  let m, h, victim, target, value = unlink_attack ~safe_unlink:false () in
  H.free h victim;
  Alcotest.(check int) "arbitrary 4-byte write happened" value (M.read_i32 m target)

let test_heap_safe_unlink_detects () =
  let _, h, victim, _, _ = unlink_attack ~safe_unlink:true () in
  match H.free h victim with
  | _ -> Alcotest.fail "safe unlink did not fire"
  | exception H.Corruption_detected _ -> ()

let test_heap_exhaustion () =
  let m = mem () in
  let h = H.create m ~base:(base + 0x100) ~size:64 ~safe_unlink:false in
  Alcotest.(check (option int)) "too big" None (H.malloc h 4096)

(* Property: random alloc/free sequences keep the free list
   consistent and never hand out overlapping live chunks. *)
let prop_heap_invariants =
  let open QCheck in
  Test.make ~name:"heap: random alloc/free keeps invariants" ~count:200
    (list (pair (int_range 1 200) bool))
    (fun ops ->
       let _, h = heap () in
       let live = ref [] in
       List.iter
         (fun (size, do_free) ->
            match do_free, !live with
            | true, user :: rest ->
                H.free h user;
                live := rest
            | true, [] | false, _ -> (
                match H.malloc h size with
                | Some user -> live := !live @ [ user ]
                | None -> ()))
         ops;
       let interval user =
         let chunk = H.chunk_of_user user in
         (chunk, chunk + H.chunk_size h ~chunk)
       in
       let sorted = List.sort compare (List.map interval !live) in
       let rec disjoint = function
         | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && disjoint rest
         | [ _ ] | [] -> true
       in
       H.free_list_consistent h && disjoint sorted)

(* ---- stack ------------------------------------------------------- *)

module S = Machine.Stack

let stack ?(protection = S.No_protection) () =
  let m = mem () in
  (m, S.create m ~base:(base + 0x8000) ~size:0x4000 ~protection)

let test_stack_frame_roundtrip () =
  let _, s = stack () in
  S.push_frame s ~func:"f" ~ret_addr:0x8000000 ~locals:[ ("x", 16) ];
  Alcotest.(check int) "depth" 1 (S.depth s);
  Alcotest.(check int) "local size" 16 (S.local_size s "x");
  (match S.pop_frame s with
   | S.Returned a -> Alcotest.(check int) "clean return" 0x8000000 a
   | S.Smashed_canary _ -> Alcotest.fail "no canary expected");
  Alcotest.(check int) "depth back to 0" 0 (S.depth s)

let test_stack_locals_below_ret () =
  let _, s = stack () in
  S.push_frame s ~func:"f" ~ret_addr:1 ~locals:[ ("buf", 100) ];
  let d = S.distance_to_ret s "buf" in
  Alcotest.(check bool) "buffer ends at/below ret slot" true (d >= 100)

let test_stack_overflow_reaches_ret () =
  let m, s = stack () in
  S.push_frame s ~func:"g" ~ret_addr:7 ~locals:[ ("outer", 32) ];
  S.push_frame s ~func:"f" ~ret_addr:42 ~locals:[ ("buf", 100) ];
  let buf = S.local_addr s "buf" in
  let d = S.distance_to_ret s "buf" in
  let payload = String.make d 'A' ^ "\x39\x05\x00\x00" in
  M.write_string m buf payload;
  Alcotest.(check bool) "ret corrupted" false (S.ret_addr_intact s);
  (match S.pop_frame s with
   | S.Returned a -> Alcotest.(check int) "hijacked" 0x539 a
   | S.Smashed_canary _ -> Alcotest.fail "no canary configured")

let test_stack_canary_detects () =
  let m, s = stack ~protection:S.Stackguard () in
  S.push_frame s ~func:"g" ~ret_addr:7 ~locals:[ ("outer", 32) ];
  S.push_frame s ~func:"f" ~ret_addr:42 ~locals:[ ("buf", 64) ];
  let buf = S.local_addr s "buf" in
  M.write_string m buf (String.make (S.distance_to_ret s "buf" + 4) 'A');
  Alcotest.(check bool) "canary gone" false (S.canary_intact s);
  (match S.pop_frame s with
   | S.Smashed_canary _ -> ()
   | S.Returned _ -> Alcotest.fail "canary missed the smash")

let test_stack_canary_distance_larger () =
  let _, s0 = stack () in
  S.push_frame s0 ~func:"f" ~ret_addr:1 ~locals:[ ("buf", 64) ];
  let d0 = S.distance_to_ret s0 "buf" in
  let _, s1 = stack ~protection:S.Stackguard () in
  S.push_frame s1 ~func:"f" ~ret_addr:1 ~locals:[ ("buf", 64) ];
  Alcotest.(check int) "canary adds a word" (d0 + 4) (S.distance_to_ret s1 "buf")

let test_stack_split_stack_survives () =
  let m, s = stack ~protection:S.Split_stack () in
  S.push_frame s ~func:"g" ~ret_addr:7 ~locals:[ ("outer", 32) ];
  S.push_frame s ~func:"f" ~ret_addr:42 ~locals:[ ("buf", 64) ];
  let buf = S.local_addr s "buf" in
  M.write_string m buf (String.make (S.distance_to_ret s "buf" + 4) 'B');
  Alcotest.(check bool) "memory copy corrupted" false (S.ret_addr_intact s);
  (match S.pop_frame s with
   | S.Returned a -> Alcotest.(check int) "shadow wins" 42 a
   | S.Smashed_canary _ -> Alcotest.fail "split stack has no canary")

let test_stack_nested_frames () =
  let _, s = stack () in
  S.push_frame s ~func:"a" ~ret_addr:1 ~locals:[ ("x", 8) ];
  let xa = S.local_addr s "x" in
  S.push_frame s ~func:"b" ~ret_addr:2 ~locals:[ ("x", 8) ];
  let xb = S.local_addr s "x" in
  Alcotest.(check bool) "inner frame lower" true (xb < xa);
  ignore (S.pop_frame s);
  Alcotest.(check int) "outer x visible again" xa (S.local_addr s "x")

(* ---- GOT --------------------------------------------------------- *)

module G = Machine.Got

let test_got_register_resolve () =
  let m = mem () in
  let g = G.create m ~base ~capacity:8 in
  G.register g "free" ~code:0x8000010;
  G.register g "setuid" ~code:0x8000020;
  Alcotest.(check int) "resolve" 0x8000010 (G.resolve g "free");
  Alcotest.(check bool) "unchanged" true (G.unchanged g "setuid");
  Alcotest.(check bool) "slots distinct" true
    (G.slot_addr g "free" <> G.slot_addr g "setuid")

let test_got_corruption_visible () =
  let m = mem () in
  let g = G.create m ~base ~capacity:8 in
  G.register g "free" ~code:0x8000010;
  M.write_i32 m (G.slot_addr g "free") 0x41414141;
  Alcotest.(check bool) "changed" false (G.unchanged g "free");
  Alcotest.(check int) "resolves to attacker value" 0x41414141 (G.resolve g "free");
  Alcotest.(check int) "original remembered" 0x8000010 (G.original g "free")

let test_got_duplicate_rejected () =
  let m = mem () in
  let g = G.create m ~base ~capacity:8 in
  G.register g "free" ~code:1;
  match G.register g "free" ~code:2 with
  | _ -> Alcotest.fail "duplicate accepted"
  | exception Invalid_argument _ -> ()

(* ---- cstring / payload ------------------------------------------- *)

let test_strcpy_stops_at_nul () =
  let m = mem () in
  Machine.Cstring.strcpy m ~dst:base "ab\000cd";
  Alcotest.(check string) "copied prefix" "ab" (M.read_cstring m base)

let test_strcpy_is_unbounded () =
  let m = mem () in
  let s = String.make 500 'q' in
  Machine.Cstring.strcpy m ~dst:base s;
  Alcotest.(check string) "all 500 bytes" s (M.read_cstring m base)

let test_strncpy_no_nul_when_full () =
  let m = mem () in
  M.write_u8 m (base + 3) 0x7a;
  Machine.Cstring.strncpy m ~dst:base "abcdef" ~n:3;
  Alcotest.(check string) "3 bytes" "abc" (M.read_bytes m base 3);
  Alcotest.(check int) "no terminator written" 0x7a (M.read_u8 m (base + 3))

let test_strcat () =
  let m = mem () in
  Machine.Cstring.strcpy m ~dst:base "foo";
  Machine.Cstring.strcat m ~dst:base "bar";
  Alcotest.(check string) "concatenated" "foobar" (M.read_cstring m base)

let test_payload_embed () =
  let p = Machine.Payload.create 16 ~fill:'A' in
  Machine.Payload.set_i32 p ~off:8 0x01020304;
  let s = Machine.Payload.to_string p in
  Alcotest.(check char) "fill" 'A' s.[0];
  Alcotest.(check int) "LE low byte" 4 (Char.code s.[8]);
  Alcotest.(check int) "LE high byte" 1 (Char.code s.[11])

let test_payload_repeat_pattern () =
  Alcotest.(check string) "repeat" "%x%x%x" (Machine.Payload.repeat "%x" 3);
  Alcotest.(check int) "pattern length" 37 (String.length (Machine.Payload.pattern 37))

(* ---- process ----------------------------------------------------- *)

let test_process_call_via_got () =
  let p = Machine.Process.create () in
  Machine.Process.register_function p "setuid";
  (match Machine.Process.call_via_got p "setuid" with
   | Machine.Process.Legit "setuid" -> ()
   | _ -> Alcotest.fail "expected legit call");
  let got = Machine.Process.got p in
  let scratch = Machine.Process.alloc_global p "sc" 32 in
  Machine.Process.mark_shellcode p ~addr:scratch ~len:32 ~label:"MC";
  Machine.Memory.write_i32 (Machine.Process.mem p) (G.slot_addr got "setuid") scratch;
  (match Machine.Process.call_via_got p "setuid" with
   | Machine.Process.Shellcode "MC" -> ()
   | _ -> Alcotest.fail "expected shellcode jump")

let test_process_wild_jump () =
  let p = Machine.Process.create () in
  Machine.Process.register_function p "f";
  Machine.Memory.write_i32 (Machine.Process.mem p)
    (G.slot_addr (Machine.Process.got p) "f")
    0x31337;
  match Machine.Process.call_via_got p "f" with
  | Machine.Process.Wild 0x31337 -> ()
  | _ -> Alcotest.fail "expected wild jump"

let test_process_globals () =
  let p = Machine.Process.create () in
  let a = Machine.Process.alloc_global p "tTvect" 400 in
  let b = Machine.Process.alloc_global p "other" 8 in
  Alcotest.(check int) "lookup" a (Machine.Process.global p "tTvect");
  Alcotest.(check int) "size" 400 (Machine.Process.global_size p "tTvect");
  Alcotest.(check bool) "disjoint" true (b >= a + 400)

let () =
  Alcotest.run "machine"
    [ ("memory",
       [ Alcotest.test_case "u8 roundtrip" `Quick test_mem_roundtrip_u8;
         Alcotest.test_case "i32 roundtrip" `Quick test_mem_roundtrip_i32;
         Alcotest.test_case "i32 wraps" `Quick test_mem_i32_wraps;
         Alcotest.test_case "little endian" `Quick test_mem_little_endian;
         Alcotest.test_case "faults" `Quick test_mem_faults;
         Alcotest.test_case "cstring" `Quick test_mem_cstring;
         Alcotest.test_case "fill/read" `Quick test_mem_fill_and_read_bytes;
         Alcotest.test_case "diff ranges" `Quick test_mem_diff_ranges;
         Alcotest.test_case "cstring below base" `Quick test_mem_cstring_below_base;
         Alcotest.test_case "pages on write" `Quick test_mem_pages_on_write;
         QCheck_alcotest.to_alcotest (prop_paged_matches_flat ~plan:None);
         QCheck_alcotest.to_alcotest
           (prop_paged_matches_flat ~plan:(Some Fault.Catalog.bitflip)) ]);
      ("heap",
       [ Alcotest.test_case "malloc distinct" `Quick test_heap_malloc_distinct;
         Alcotest.test_case "usable size" `Quick test_heap_usable_size;
         Alcotest.test_case "nonpositive rejected" `Quick
           test_heap_malloc_rejects_nonpositive;
         Alcotest.test_case "calloc zeroes" `Quick test_heap_calloc_zeroes;
         Alcotest.test_case "free then reuse" `Quick test_heap_free_then_reuse;
         Alcotest.test_case "split remainder" `Quick
           test_heap_split_leaves_free_remainder;
         Alcotest.test_case "double free" `Quick test_heap_double_free_detected;
         Alcotest.test_case "forward coalesce" `Quick test_heap_forward_coalesce;
         Alcotest.test_case "unlink attack" `Quick test_heap_unlink_attack;
         Alcotest.test_case "safe unlink" `Quick test_heap_safe_unlink_detects;
         Alcotest.test_case "exhaustion" `Quick test_heap_exhaustion;
         QCheck_alcotest.to_alcotest prop_heap_invariants ]);
      ("stack",
       [ Alcotest.test_case "frame roundtrip" `Quick test_stack_frame_roundtrip;
         Alcotest.test_case "locals below ret" `Quick test_stack_locals_below_ret;
         Alcotest.test_case "overflow reaches ret" `Quick
           test_stack_overflow_reaches_ret;
         Alcotest.test_case "canary detects" `Quick test_stack_canary_detects;
         Alcotest.test_case "canary distance" `Quick test_stack_canary_distance_larger;
         Alcotest.test_case "split stack survives" `Quick
           test_stack_split_stack_survives;
         Alcotest.test_case "nested frames" `Quick test_stack_nested_frames ]);
      ("got",
       [ Alcotest.test_case "register/resolve" `Quick test_got_register_resolve;
         Alcotest.test_case "corruption visible" `Quick test_got_corruption_visible;
         Alcotest.test_case "duplicate rejected" `Quick test_got_duplicate_rejected ]);
      ("cstring/payload",
       [ Alcotest.test_case "strcpy stops at NUL" `Quick test_strcpy_stops_at_nul;
         Alcotest.test_case "strcpy unbounded" `Quick test_strcpy_is_unbounded;
         Alcotest.test_case "strncpy no NUL" `Quick test_strncpy_no_nul_when_full;
         Alcotest.test_case "strcat" `Quick test_strcat;
         Alcotest.test_case "payload embed" `Quick test_payload_embed;
         Alcotest.test_case "repeat/pattern" `Quick test_payload_repeat_pattern ]);
      ("process",
       [ Alcotest.test_case "call via GOT" `Quick test_process_call_via_got;
         Alcotest.test_case "wild jump" `Quick test_process_wild_jump;
         Alcotest.test_case "globals" `Quick test_process_globals ]) ]
