(** Boundary-tag heap allocator in the style of GNU libc 2.x (dlmalloc).

    Chunk layout, matching the paper's Figure 4 narrative:

    {v
      chunk+0   prev_size        (size of previous chunk, if free)
      chunk+4   size | IN_USE    (bit 0 set while allocated)
      chunk+8   user data ...    (fd when free)
      chunk+12  ...              (bk when free)
    v}

    Free chunks live on a circular doubly-linked list threaded
    {e through memory}, so an attacker who overflows a buffer into the
    following free chunk controls its [fd]/[bk] fields.  Removing such
    a chunk from the list executes the classic unlink write
    [FD->bk = BK; BK->fd = FD] — a write of an attacker-chosen value
    to an attacker-chosen address.  This is exactly the primitive the
    NULL HTTPD exploit (Bugtraq #5774/#6255) uses to corrupt the GOT
    entry of [free].

    [safe_unlink:true] enables the integrity check added to later
    glibc versions ([FD->bk == P && BK->fd == P]); with it the exploit
    is foiled and {!Corruption_detected} is raised instead. *)

type t

exception Corruption_detected of { chunk : Addr.t }
(** Raised by the safe-unlink check on an inconsistent free chunk. *)

exception Double_free of { user : Addr.t }

val create : Memory.t -> base:Addr.t -> size:int -> safe_unlink:bool -> t
(** Manage [\[base, base + size)] of the given memory as a heap. *)

val memory : t -> Memory.t

val malloc : t -> int -> Addr.t option
(** [malloc t n] returns the user pointer of a fresh chunk able to
    hold [n] bytes, or [None] when the heap is exhausted or [n <= 0]. *)

val calloc : t -> count:int -> size:int -> Addr.t option
(** C semantics: allocates [count * size] bytes (product truncated to
    32 bits, as in the vulnerable era) and zeroes them. *)

val free : t -> Addr.t -> unit
(** Return a chunk to the free list, coalescing with free neighbours
    via unlink.  The unlink writes go through {!Memory} and are
    therefore subject to corruption by earlier overflows. *)

val realloc : t -> Addr.t -> int -> Addr.t option
(** Grow/shrink: allocate, copy the overlapping prefix, free the old
    chunk.  [None] leaves the original allocation untouched. *)

(** {2 Integrity checking} *)

type issue =
  | Bad_chunk_size of { chunk : Addr.t; size : int }
  | Chunks_overrun_top of { chunk : Addr.t }
  | Free_bit_mismatch of { chunk : Addr.t }
  | Broken_free_link of { chunk : Addr.t }

val validate : t -> issue list
(** Walk the whole chunk arena and the free list; an empty list means
    the heap metadata is self-consistent.  A successful unlink attack
    leaves issues behind — this is the detector a hardened allocator
    would run. *)

(** {2 Introspection (used by exploits, models and tests)} *)

val request_size : int -> int
(** Total chunk size (header included, 8-byte aligned, minimum 16)
    that [malloc n] will carve — lets exploits predict layout. *)

val chunk_of_user : Addr.t -> Addr.t

val fd_addr : chunk:Addr.t -> Addr.t
(** Address of the [fd] field of a (free) chunk. *)

val bk_addr : chunk:Addr.t -> Addr.t

val bk_field_offset : int
(** Offset of [bk] from the chunk base (the "offset of field bk" in
    the paper's footnote 7). *)

val chunk_size : t -> chunk:Addr.t -> int

val usable_size : t -> user:Addr.t -> int

val free_list : t -> Addr.t list
(** Chunks currently on the (in-memory) free list, excluding the bin
    sentinel; traversal is bounded so a corrupted list terminates. *)

val free_list_consistent : t -> bool
(** Whether every free-list link satisfies [fd->bk = self] and
    [bk->fd = self]. *)
