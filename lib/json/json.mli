(** The one JSON codec: every document dfsm writes is built as a {!t}
    and printed here, and every JSON line it reads is parsed here.

    Total over UTF-8 at both ends.  {!parse} decodes [\uXXXX] escapes,
    surrogate pairs included, to UTF-8 and rejects invalid UTF-8 and
    unpaired surrogates with a typed {!error}.  The printer writes only
    valid UTF-8: in a string that never went through the parser (a file
    name, a CSV field, a witness), each maximal invalid byte sequence
    prints as U+FFFD.  Numbers follow RFC 8259's grammar; an integer
    literal that fits an [int] parses as [Int], any other number as
    [Float].  Object members print in construction order, so a value
    always prints the same bytes — the byte-identity contracts of
    serve, chaos and the traces rest on that. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
      (** prints ["%.1f"] when integral and below 1e15, else ["%.6g"] *)
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with exactly [d] decimals; the
          parser never yields it *)
  | Str of string
  | List of t list
  | Obj of (string * t) list
(** A non-finite [Float] or [Fixed] prints as [null]. *)

type error =
  | Syntax of { pos : int; msg : string }
  | Invalid_utf8 of { pos : int }
  | Unpaired_surrogate of { pos : int }  (** [pos]: a byte offset *)

val error_to_string : error -> string
(** ["at POS: ..."] *)

val parse : string -> (t, error) result
(** One JSON value; trailing garbage after it is an error. *)

type layout =
  | Compact  (** no whitespace: [{"a":1,"b":[2,3]}] *)
  | Spaced  (** one line, [", "] and [": "]: [{"a": 1, "b": [2, 3]}] *)
  | Indented
      (** each item of the outer two levels on a line of its own,
          indented two spaces a level, and [Spaced] below them; an
          empty container prints [[]] or [{}] *)

val to_buffer : ?layout:layout -> Buffer.t -> t -> unit
(** [layout] defaults to [Spaced]. *)

val to_string : ?layout:layout -> t -> string

(** {2 Accessors} — [None] on kind mismatch. *)

val mem : string -> t -> t option
(** First binding of the field in an [Obj]. *)

val str : t -> string option

val int : t -> int option

val bool : t -> bool option
