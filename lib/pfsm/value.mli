(** Objects flowing through pFSMs.

    The paper's elementary activities check "input objects" — user
    strings, converted integers, memory addresses, booleans derived
    from system state.  A value is one such object. *)

type t =
  | Int of int
  | Str of string
  | Addr of int
  | Bool of bool
  | Unit

val equal : t -> t -> bool

val type_name : t -> string

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Partial projections; raise [Invalid_argument] on the wrong
    constructor, naming the expected type. *)

val as_int : t -> int

val as_str : t -> string

val as_addr : t -> int
