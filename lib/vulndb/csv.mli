(** CSV export {e and} import of the database (RFC-4180 quoting), so
    the statistics can be reproduced in external tooling and fed back
    in.  [parse] is a full inverse of [of_database]:
    [parse (of_database db) = Ok (Database.reports db)]. *)

val header : string

val of_report : Report.t -> string
(** One CSV line (no trailing newline). *)

val of_database : Database.t -> string
(** Header plus one line per report, ascending by ID. *)

val escape : string -> string
(** Quote a field iff it contains a comma, quote, CR or newline. *)

type error = {
  line : int;    (** physical line of the offence (1-based) *)
  column : int;  (** character column on that line (1-based) *)
  field : string option;
      (** the offending field's contents, when the offence is a bad
          field rather than a syntax error *)
  message : string;
}
(** Malformed input never raises: every parsing entry point returns a
    typed error locating the offence. *)

val error_to_string : error -> string
(** ["line L, column C: message (field \"...\")"]. *)

type row = {
  start_line : int;  (** physical line the row starts on *)
  fields : (int * string) list;  (** (starting column, contents) *)
}

val parse_rows : string -> (row list, error) result
(** RFC-4180 tokenisation only — no header check, no field typing.
    Handles quoted fields with embedded commas, doubled quotes and
    raw newlines; accepts CRLF and LF row endings; rejects an
    unterminated quote, garbage after a closing quote, and a bare CR
    outside quotes. *)

val report_of_row : row -> (Report.t, error) result
(** Type one tokenised row: ragged rows and unparseable fields are
    typed errors carrying the offending field.  An empty
    [elementary_activity] field reads back as [None]. *)

val parse : string -> (Report.t list, error) result
(** Parse a [header]-led CSV document: {!parse_rows}, the header
    check, then {!report_of_row} on every row — first error wins. *)
