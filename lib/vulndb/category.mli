(** The twelve Bugtraq vulnerability classes of Figure 1, with the
    definitions the figure gives and the percentages the paper
    reports for the 5925-report snapshot of 2002-11-30. *)

type t =
  | Access_validation_error
  | Atomicity_error
  | Boundary_condition_error
  | Configuration_error
  | Design_error
  | Environment_error
  | Failure_to_handle_exceptional_conditions
  | Input_validation_error
  | Origin_validation_error
  | Race_condition_error
  | Serialization_error
  | Unknown

val all : t list

val index : t -> int
(** The category's position in {!all}. *)

val to_string : t -> string

val of_string : string -> t option

val definition : t -> string
(** The definition box of Figure 1 (empty for the undefined ones). *)

val paper_percent : t -> int
(** The (rounded) share Figure 1 reports. *)

val paper_count : t -> int
(** Integer counts summing to exactly 5925 whose rounded shares
    reproduce {!paper_percent}. *)

val total_reports : int
(** 5925 — the database size on 2002-11-30. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
