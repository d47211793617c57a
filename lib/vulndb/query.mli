(** Queries over the report database — the lookups the paper's
    analysis workflow needs (find the reports about one program,
    one mechanism, one period). *)

val by_software : Database.t -> string -> Report.t list
(** Case-insensitive substring match on the software field. *)

val by_flaw : Database.t -> Report.flaw -> Report.t list

val between : Database.t -> since:string -> until:string -> Report.t list
(** Inclusive ISO-date interval (lexicographic comparison is exact
    for YYYY-MM-DD). *)

val text_search : Database.t -> string -> Report.t list
(** Case-insensitive substring search over title and description. *)

val remote_share : Database.t -> float
(** Percentage of reports exploitable remotely (counting [Both]). *)

val year_of : Report.t -> int
