(** The checksummed on-disk record codec.

    Every persisted value is framed as one self-verifying record:

    {v DFSMSTORE <version> <payload-length> <md5-hex-of-payload>\n<payload> v}

    The header is fixed-field ASCII so a torn write (any strict byte
    prefix of a record) is always detectable: either the header line is
    incomplete, or the payload is shorter than the header declares.  A
    bit flip anywhere — header or payload — fails the digest or the
    field parse.  Decoding therefore returns a typed error taxonomy
    rather than garbage, and never raises. *)

val current_version : int

type error =
  | Torn
      (** The record is a strict prefix of a committed one: the header
          line never completed, or the payload is shorter than the
          header declares. *)
  | Checksum_mismatch
      (** Structurally complete but corrupt: bad magic, an unparseable
          header field, trailing bytes, or a payload digest mismatch. *)
  | Stale_version
      (** A well-formed record written by an incompatible codec
          version. *)

val error_to_string : error -> string

val encode : string -> string
(** Frame a payload as a record. *)

val decode : string -> (string, error) result
(** Verify a record image and return its payload.  Total: any byte
    string maps to a payload or a typed error. *)

(** {2 Sealed lines}

    A one-line variant of the same idea for the append-only
    checkpoint journal: [seal_line l] prefixes [l] with the MD5 of
    its content, so a reader takes a line only when it verifies — a
    corrupted or torn line is detected, never parsed.  [l] must not
    contain a newline. *)

val seal_line : string -> string

val unseal_line : string -> string option
(** [Some content] for a sealed line whose digest verifies; [None] for
    anything else — a corrupted or torn line, a truncated seal prefix,
    and a bare line that carries no seal at all. *)

(** Test seam: frame a payload under an arbitrary codec version. *)
module For_testing : sig
  val encode_with_version : version:int -> string -> string
end
