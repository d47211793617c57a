(** A complete simulated process image: one flat memory holding the
    GOT, a global data segment, the heap and the stack, plus a text
    segment of registered functions living {e outside} writable
    memory (so code itself cannot be overwritten, as on a real
    system with W^X text pages).

    The memory map is fixed:

    {v
      0x08000000+   code symbols (not writable, not in Memory)
      0x10000       GOT (64 slots)
      0x11000       global data segment (bump-allocated)
      0x20000       heap
      0x50000       stack (grows down from 0x70000)
    v} *)

type t

type jump_result =
  | Legit of string         (** original code of a registered function *)
  | Shellcode of string     (** attacker-staged code ("Mcode") *)
  | Wild of Addr.t          (** neither — a crash in practice *)

val create :
  ?safe_unlink:bool ->
  ?stack_protection:Stack.protection ->
  ?aslr_seed:int ->
  unit ->
  t
(** Defaults model the 2002-era target: unsafe unlink, no stack
    protection, no ASLR.  [aslr_seed] slides the heap, stack and data
    segments by deterministic 16-byte-aligned offsets — but not the
    GOT, which pre-PIE executables kept fixed (which is why the
    paper's GOT-corruption exploits survived early ASLR). *)

val aslr_slide : seed:int -> region:int -> int
(** The deterministic slide [create ~aslr_seed] applies to a region
    (1 = heap, 2 = stack, 3 = data); exposed so experiments can pick
    seeds with non-degenerate slides. *)

val mem : t -> Memory.t

val heap : t -> Heap.t

val stack : t -> Stack.t

val got : t -> Got.t

val register_function : t -> string -> unit
(** Assign a text address to [name] and create its GOT entry. *)

val code_addr : t -> string -> Addr.t

val alloc_global : t -> string -> int -> Addr.t
(** Carve a named object out of the data segment (e.g. [tTvect]). *)

val global : t -> string -> Addr.t

val global_size : t -> string -> int

val mark_shellcode : t -> addr:Addr.t -> len:int -> label:string -> unit
(** Declare that the bytes at [addr..addr+len) are attacker code; a
    jump landing in the range counts as executing it. *)

val classify_jump : t -> Addr.t -> jump_result

val call_via_got : t -> string -> jump_result
(** Look the function up through the (possibly corrupted) GOT and
    report where control lands — the paper's elementary activity
    "execute code referred by a function pointer". *)
