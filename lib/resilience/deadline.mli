(** Fuel-based execution deadlines.

    A deadline is a fixed pool of virtual-time units that a piece of
    work spends as it goes; the serve handlers run each request
    attempt inside one.  Exhaustion is sticky: once a spend is
    refused the deadline refuses every later one. *)

type t

val of_fuel : int -> t
(** Negative fuel clamps to zero. *)

val spend : t -> int -> bool
(** Spend [n] units ([n >= 0]).  [false] means the deadline is
    exceeded and the work should not proceed. *)

val used : t -> int
