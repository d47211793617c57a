type jump_result =
  | Legit of string
  | Shellcode of string
  | Wild of Addr.t

type t = {
  mem : Memory.t;
  heap : Heap.t;
  stack : Stack.t;
  got : Got.t;
  mutable code_syms : (Addr.t * string) list;
  mutable next_code : Addr.t;
  mutable shellcode : (Addr.t * int * string) list;
  mutable data_next : Addr.t;
  data_limit : Addr.t;
  mutable globals : (string * (Addr.t * int)) list;
}

let mem_base = 0x10000
let mem_size = 0x60000
let got_base = 0x10000
let data_base = 0x11000
let data_limit = 0x14000
let heap_base = 0x20000
let heap_size = 0x20000
let stack_base = 0x50000
let stack_size = 0x20000
(* Chosen so that zeroing the low byte of a code address (strcpy's NUL
   terminator landing on a return slot) never yields another symbol. *)
let text_base = 0x08000155

(* Small deterministic hash for ASLR offsets: 16-byte aligned slides
   up to a page, independent per region, as the early PaX/ExecShield
   randomisation did.  The GOT is deliberately NOT slid: pre-PIE
   executables kept it at a fixed address, which is exactly why the
   paper's GOT-corruption exploits survived early ASLR. *)
let slide seed region =
  let h = (seed * 0x9e3779b9) lxor (region * 0x85ebca6b) in
  (h lsr 8) land 0xff0

let aslr_slide ~seed ~region = slide seed region

let create ?(safe_unlink = false) ?(stack_protection = Stack.No_protection)
    ?aslr_seed () =
  let off region = match aslr_seed with None -> 0 | Some s -> slide s region in
  let mem = Memory.create ~base:mem_base ~size:mem_size in
  { mem;
    heap =
      Heap.create mem ~base:(heap_base + off 1) ~size:(heap_size - 0x1000) ~safe_unlink;
    stack =
      Stack.create mem ~base:(stack_base + off 2) ~size:(stack_size - 0x1000)
        ~protection:stack_protection;
    got = Got.create mem ~base:got_base ~capacity:64;
    code_syms = [];
    next_code = text_base;
    shellcode = [];
    data_next = data_base + off 3;
    data_limit;
    globals = [] }

let mem t = t.mem
let heap t = t.heap
let stack t = t.stack
let got t = t.got

let register_function t name =
  let code = t.next_code in
  t.next_code <- t.next_code + 0x10;
  t.code_syms <- (code, name) :: t.code_syms;
  Got.register t.got name ~code

let code_addr t name =
  let rec look = function
    | [] -> invalid_arg ("Process.code_addr: unknown function " ^ name)
    | (a, n) :: rest -> if n = name then a else look rest
  in
  look t.code_syms

let align8 n = (n + 7) land lnot 7

let alloc_global t name size =
  if List.mem_assoc name t.globals then
    invalid_arg ("Process.alloc_global: duplicate " ^ name);
  let a = t.data_next in
  if a + size > t.data_limit then
    Fault.Condition.fail (Fault.Condition.Data_segment_full { requested = size });
  t.data_next <- a + align8 size;
  t.globals <- (name, (a, size)) :: t.globals;
  a

let lookup_global t name =
  match List.assoc_opt name t.globals with
  | Some g -> g
  | None -> invalid_arg ("Process.global: unknown global " ^ name)

let global t name = fst (lookup_global t name)

let global_size t name = snd (lookup_global t name)

let mark_shellcode t ~addr ~len ~label =
  t.shellcode <- (addr, len, label) :: t.shellcode

let classify_jump t addr =
  match List.assoc_opt addr t.code_syms with
  | Some name -> Legit name
  | None ->
      let in_range (a, len, _) = addr >= a && addr < a + len in
      (match List.find_opt in_range t.shellcode with
       | Some (_, _, label) -> Shellcode label
       | None -> Wild addr)

let call_via_got t name = classify_jump t (Got.resolve t.got name)
