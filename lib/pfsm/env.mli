(** The environment threaded through a model run.

    Environment entries carry the system facts the predicates consult
    ("is the GOT entry of setuid unchanged?", "size of the PostData
    buffer") and the values operations propagate to one another — the
    paper's propagation gates are functions [t -> t]. *)

type t

val empty : t

val add : string -> Value.t -> t -> t

val add_int : string -> int -> t -> t

val add_str : string -> string -> t -> t

val add_bool : string -> bool -> t -> t

val add_addr : string -> int -> t -> t

val find : string -> t -> Value.t option

val get : string -> t -> Value.t
(** Raises [Not_found_key] with the key name when absent. *)

exception Not_found_key of string

val get_int : string -> t -> int

val get_str : string -> t -> string

val get_addr : string -> t -> int

val flag : string -> t -> bool
(** [flag k t] — the boolean fact [k], defaulting to [false] when the
    key is absent. *)

val mem : string -> t -> bool

val bindings : t -> (string * Value.t) list

val of_list : (string * Value.t) list -> t

val pp : Format.formatter -> t -> unit
