(** Machine addresses.

    Addresses are plain integers into the simulated flat address
    space; this module only centralises formatting and arithmetic so
    that call sites read like the exploit write-ups they model. *)

type t = int

val null : t

val add : t -> int -> t

val diff : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
