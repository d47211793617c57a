(** C string and memory routines over simulated memory.

    These are the unbounded / bounded copy primitives whose misuse the
    paper's elementary activities hinge on: [strcpy] keeps writing
    until the source's NUL regardless of the destination size, while
    [strncpy] honours an explicit bound. *)

val strcpy : Memory.t -> dst:Addr.t -> string -> unit
(** Copy the string up to its first NUL, plus a terminating NUL — no
    bound check; faults only at the edge of the address space. *)

val strncpy : Memory.t -> dst:Addr.t -> string -> n:int -> unit
(** Copy at most [n] bytes; NUL-terminates only when the source is
    shorter than [n] (true C semantics). *)

val strlen : Memory.t -> Addr.t -> int

val strcat : Memory.t -> dst:Addr.t -> string -> unit
(** Append to the NUL-terminated string at [dst] — unbounded. *)
