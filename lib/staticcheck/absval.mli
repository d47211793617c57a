(** Abstract values for the mini-C abstract interpreter.

    A numeric value is an {!Interval.t} plus optional {e affine
    symbolic bounds} of the form [param + offset] — just enough
    relational information to prove [x < contentLen] implies
    [x + 1024 < contentLen + 1024] (the ReadPOSTData [&&] fix) while
    the [||] variant loses the relation at the disjunction and is
    flagged.  Strings are abstracted by the interval of their possible
    lengths.  [from_atoi] taints values that flowed out of a C [atoi],
    powering the integer-wrap-into-index checker. *)

type sym = { base : string; off : int }
(** The affine bound [base + off], [base] a function parameter. *)

type num = {
  itv : Interval.t;
  lo_sym : sym option;   (** value [>= base + off] *)
  hi_sym : sym option;   (** value [<= base + off] *)
  from_atoi : bool;
}

type t =
  | Num of num
  | Str of num           (** a string, abstracted by its length *)

val num :
  ?lo_sym:sym option -> ?hi_sym:sym option -> ?from_atoi:bool ->
  Interval.t -> num

val of_itv : Interval.t -> t
val str_of_len : Interval.t -> t
val const : int -> t

val param_int : string -> Interval.t -> t
(** An integer parameter: its interval plus the exact self-bound
    [param + 0] on both sides. *)

val top : t
val str_top : t
(** Any string: length in [\[0, +inf)]. *)

val as_num : t -> num
(** Numeric view; a string coerces to [top] (type confusion is the
    interpreter's problem, not the linter's). *)

val as_len : t -> num
(** Length view of a string; a number coerces to [\[0, +inf)]. *)

val is_bot : t -> bool

val join : t -> t -> t
val widen : t -> t -> t
val equal : t -> t -> bool
val equal_num : num -> num -> bool

val join_num : num -> num -> num
val widen_num : num -> num -> num

val join_r : resolve:(string -> Interval.t) -> t -> t -> t
val join_num_r : resolve:(string -> Interval.t) -> num -> num -> num
(** Joins that can {e recover} a symbolic bound for a side that only
    has a concrete interval, by resolving the other side's base
    parameter to its interval: [x <= h] and [base >= bl] imply
    [x <= base + (h - bl)].  Without recovery every loop-head join
    against the entry state would destroy the relations the
    ReadPOSTData safety proof needs. *)

val add_num : num -> num -> num
val sub_num : num -> num -> num
(** Subtraction performs symbolic cancellation: [a <= p + c] and
    [b >= p + c'] bound [a - b] above by [c - c'] — the heart of the
    buffer-excess safety proofs. *)

val mul_num : num -> num -> num
val min_num : num -> num -> num
val meet_num : num -> num -> num

val sym_shift : int -> sym option -> sym option

val pp : Format.formatter -> t -> unit
val pp_num : Format.formatter -> num -> unit
val to_string : t -> string
