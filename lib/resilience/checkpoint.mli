(** A journal of completed work-item ids.

    The supervisor marks an item here the moment it completes; an
    interrupted sweep re-invoked against the same journal skips the
    marked items (reporting them as completed from the checkpoint,
    with the attempt count the journal recorded) and analyzes each
    remaining item exactly once.  File-backed journals append one
    line per completion so a kill at any point loses at most the
    in-flight item. *)

type t

val in_memory : unit -> t

val load : string -> t
(** A file-backed journal at this path; existing entries are read
    back, later {!mark}s are appended and flushed immediately, each
    line sealed with a per-line checksum.  The file is created on the
    first mark if absent.  Only a sealed line that verifies and parses
    (an attempt count of decimal digits >= 1, then the escaped id)
    loads.  Every other line — a torn final line after a crash,
    corruption, or a bare line from a journal written before sealing
    existed — is never silently dropped: it is counted,
    surfaced through {!skipped} / {!skipped_lines}, and classified by
    {!skipped_detail}.  Journal appends go through the store's
    fault-injection seam, so durability plans exercise the resume
    path. *)

val path : t -> string option

(** Why a journal line was skipped. *)
type damage =
  | Torn_tail  (** the final line — the prefix a crash mid-append leaves *)
  | Corrupt  (** damage anywhere before the final line *)

val damage_to_string : damage -> string

val skipped : t -> int
(** Number of journal lines {!load} could not verify and parse. *)

val skipped_lines : t -> int list
(** 1-based line numbers of the skipped journal lines, in file
    order. *)

val skipped_detail : t -> (int * damage) list
(** {!skipped_lines} with each line's classification. *)

val mark : t -> id:string -> attempts:int -> unit
(** Record a completion.  Re-marking an id keeps the first record. *)

val seen : t -> string -> bool

val attempts : t -> string -> int option
(** The attempt count recorded for a completed id. *)

val ids : t -> string list
(** Journal order. *)

val count : t -> int

val finalize : t -> unit
(** Close the cached append channel (opened lazily by the first
    {!mark} on a file-backed journal and held — flushed per line —
    for the journal's lifetime).  Safe to call twice; a later
    {!mark} reopens it. *)

val reset : t -> unit
(** Forget every entry; a file-backed journal's file is removed and
    its append channel closed. *)
