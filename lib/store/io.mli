(** The store's only doorway to the filesystem — and therefore the
    fault-injection seam for all of it.

    Every record commit and every checkpoint-journal append consults
    {!Fault.Hooks.store_write_fault} exactly once and applies the
    injected fault faithfully: a torn write really leaves a truncated
    record on disk, a bit flip really lands in the committed bytes, an
    ENOSPC/EACCES really refuses the write, and a crash-before-rename
    really strands the tmp file.  Real [Sys_error]s surface through the
    same typed result, so callers degrade identically whether the
    filesystem misbehaved for real or under a plan. *)

type write_error =
  | Refused of { path : string; errno : string }
      (** The write failed outright (injected ENOSPC/EACCES, or a real
          [Sys_error]); nothing was committed. *)
  | Crashed of { path : string }
      (** The commit died between tmp write and rename: the
          destination is untouched and an orphan tmp remains. *)

val read_file : string -> (string, [ `Enoent | `Unreadable of string ]) result
(** The whole file, binary. *)

val commit : tmp:string -> dest:string -> string -> (unit, write_error) result
(** Atomic tmp+write+rename commit of [data], with one injected-fault
    consultation.  Injected torn writes and bit flips still commit
    (silent corruption, caught by the record checksum on read);
    injected errors remove the tmp; an injected crash leaves it. *)

val append_line :
  out_channel -> path:string -> string -> (unit, write_error) result
(** Append [line ^ "\n"] to an already-open channel (the checkpoint
    journal's) and flush, with one injected-fault consultation (a torn
    append writes a prefix, a flip corrupts the line, an error or
    crash skips the append). *)

val mkdir_p : string -> unit

val remove_if_exists : string -> unit

val files_under : string -> string list
(** All regular files below a directory (recursive), sorted, as paths
    relative to it.  Missing directory = []. *)
