(** Per-year series over the database: how the report volume and the
    studied family evolve across the 1998-2002 window the synthetic
    population covers. *)

val per_year : Database.t -> (int * int) list
(** (year, reports) ascending by year; years with no report omitted. *)

val family_per_year : Database.t -> (int * int) list

val pp_series : Format.formatter -> (int * int) list -> unit
(** A console bar chart (one row per year). *)
