(** Attack payload construction.

    Exploit strings interleave filler bytes with little-endian 32-bit
    values placed at exact offsets (fake chunk headers, overwritten
    pointers, return addresses).  This module builds them the way
    published exploit code does. *)

type t

val create : int -> fill:char -> t

val length : t -> int

val set_i32 : t -> off:int -> int -> unit
(** Embed a little-endian 32-bit value at byte offset [off]. *)

val to_string : t -> string

val repeat : string -> int -> string
(** [repeat s n] — [s] concatenated [n] times (e.g. ["%x"] floods). *)

val pattern : int -> string
(** De Bruijn-ish cyclic pattern of the given length, handy for
    locating offsets in tests. *)
