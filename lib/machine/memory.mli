(** Byte-addressable memory for the simulated process.

    A memory is a single contiguous range [\[base, base + size)].
    Reads and writes outside the range raise {!Fault}, modelling a
    segmentation fault.  32-bit values are stored little-endian in
    two's complement, matching the x86 processes the paper's exploits
    target.

    The range is stored as 4 KiB pages.  Every page starts as one
    zero page shared by all memories and never written, and gets its
    own storage on its first write, so a memory costs the pages its
    program writes rather than its size.  An access that faults
    allocates nothing, and neither does a zero {!fill} of a page that
    was never written. *)

type t

type fault_kind = Read | Write

exception Fault of { addr : Addr.t; kind : fault_kind }

val create : base:Addr.t -> size:int -> t
(** Fresh zeroed memory covering [\[base, base + size)]. *)

val base : t -> Addr.t

val size : t -> int

val limit : t -> Addr.t
(** One past the last valid address. *)

val in_bounds : t -> Addr.t -> int -> bool
(** [in_bounds t a n] is true when the [n]-byte range at [a] lies
    entirely inside the memory. *)

val read_u8 : t -> Addr.t -> int

val write_u8 : t -> Addr.t -> int -> unit

val read_i32 : t -> Addr.t -> int
(** Signed 32-bit little-endian load (result in [-2^31, 2^31)). *)

val write_i32 : t -> Addr.t -> int -> unit
(** Signed 32-bit little-endian store; the value is truncated to its
    low 32 bits first, exactly as a C [int] store. *)

val read_bytes : t -> Addr.t -> int -> string

val write_string : t -> Addr.t -> string -> unit

val fill : t -> Addr.t -> int -> char -> unit

val read_cstring : t -> Addr.t -> string
(** Bytes from [a] up to (not including) the first NUL.  Faults (a
    [Read] at [a]) when [a] lies below the base, and at the limit when
    the string runs off the end of memory. *)

val snapshot : t -> string
(** Copy of the whole memory contents, for corruption diffing. *)

val diff_ranges : before:string -> after:string -> base:Addr.t -> (Addr.t * int) list
(** Maximal contiguous ranges (address, length) whose bytes differ. *)
