(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic element of the reproduction — synthetic report
    generation, witness-domain sampling — draws from this generator
    so that runs are bit-for-bit repeatable from a seed. *)

type t

val create : seed:int -> t

val next : t -> int
(** Uniform non-negative 62-bit value: the [k]-th call on a generator
    made with [create ~seed] returns [nth ~seed k]. *)

val nth : seed:int -> int -> int
(** [nth ~seed k] is the [k]-th draw ([k >= 1]) of the stream [create
    ~seed] yields, computed from [(seed, k)] alone: a caller that needs
    only some of a stream's draws reads those and skips the rest.
    Allocates nothing. *)

val below : t -> int -> int
(** Uniform in [\[0, bound)]; [bound] must be positive. *)

val in_range : t -> low:int -> high:int -> int
(** Uniform in [\[low, high\]]. *)

val pick : t -> 'a array -> 'a

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)
