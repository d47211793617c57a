(** Offline verify-and-repair for a store directory.

    [scan] walks the object tree, the store's only index, and
    classifies every file.  With [~repair:true] it also removes
    everything unsound (bad records, orphan tmps, strays), after
    which the store is clean by construction. *)

type status =
  | Sound  (** record decodes and its checksum verifies *)
  | Torn  (** strict prefix of a committed record (interrupted write) *)
  | Checksum_mismatch  (** structural corruption or flipped bits *)
  | Stale_version  (** written by another codec version *)
  | Orphan_tmp  (** in-flight commit stranded by a crash *)

val status_to_string : status -> string

type entry = {
  path : string;  (** relative to [objects/] *)
  status : status;
  removed : bool;  (** repair removed it *)
}

type report = {
  entries : entry list;  (** only non-[Sound] entries, sorted by path *)
  sound : int;
  torn : int;
  checksum_mismatch : int;
  stale_version : int;
  orphan_tmp : int;
  removed : int;  (** files repair deleted *)
}

val scan : ?repair:bool -> Disk.t -> report
(** Never raises; an unreadable file classifies as
    {!Checksum_mismatch}.  Reads and removes nothing outside
    [objects/]. *)

val clean : report -> bool
(** No unsound files survived: every non-[Sound] entry was removed by
    repair (trivially true for a scan that found only [Sound]
    records). *)

val to_json : report -> Json.t

val pp : Format.formatter -> report -> unit
