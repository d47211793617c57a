(** The on-disk content-addressed store.

    Layout under the store root:

    {v
    objects/<key>.rec                 one checksummed record per key
    objects/<key>.<tag>.tmp           in-flight commits (orphaned by a crash)
    objects/<k0k1>/<k2k3>/<key>.rec   a record as older builds wrote it
    v}

    The object tree is the store's only index: a key is stored iff
    its record file is.  Files beside [objects/] are never read, so a
    store directory older builds left a key journal in serves as
    is.  Keys are lowercase hex digests.  A commit is tmp+write+rename
    inside the [objects/] directory {!open_} makes, and nothing else:
    a {!put} creates no directory, and a reader never observes a
    half-written record under an honest filesystem; torn and flipped
    records (crashes, injected faults) are caught by the record
    checksum on read.

    Older builds sharded records two directory levels deep on the
    key's first four characters.  {!find} still serves a verified
    record at that path, read-only, when the key has none at
    [<key>.rec], and an eviction removes the key at both paths.  The
    fallback can go with the next record version, which cold-starts
    every older store anyway.

    Robustness contract: {!find} and {!put} never raise on I/O or
    corruption.  A corrupt, torn, unparseable or version-mismatched
    record reads as a miss — counted in [store.corrupt], evicted on
    the spot — and the caller's recompute-and-rewrite counts in
    [store.repaired].  A failed write is counted and forgotten: the
    store silently degrades to recompute until the filesystem
    recovers.  All I/O goes through {!Io}, so every one of these paths
    is exercised by fault plans. *)

type t

type stats = {
  hits : int;
  misses : int;
  corrupt : int;  (** records evicted after failing verification *)
  repaired : int;  (** evicted keys later rewritten by a recompute *)
  writes : int;
  write_failures : int;
}

val stats_to_json : stats -> Json.t

val sub_stats : stats -> stats -> stats
(** Pointwise difference (a phase delta). *)

val valid_key : string -> bool
(** Lowercase hex, at least 8 characters. *)

val open_ : dir:string -> t
(** Open (creating directories as needed) a store rooted at [dir].
    Cheap, and holds no file open: there is nothing to close.
    Handles are domain-safe: record files are written under
    process-unique tmp names.
    @raise Sys_error when [dir] exists but is not a directory. *)

val find : t -> key:string -> string option
(** The payload committed under [key], verified.  [None] on a missing
    record (a miss) or on any failed verification (counted corrupt,
    evicted).  @raise Invalid_argument on an invalid key. *)

val put : t -> key:string -> payload:string -> unit
(** Commit [payload] under [key] (last write wins).  Write failures
    degrade silently into [write_failures].
    @raise Invalid_argument on an invalid key. *)

val note_corrupt : t -> key:string -> unit
(** A caller-level decode of [key]'s payload failed (stale marshal
    image, wrong tag): evict and account it like record-level
    corruption, so the rewrite counts as a repair. *)

val stats : unit -> stats
(** The process-wide [store.*] counters of {!Obs.Metrics}, read as a
    record: they count across every handle the process opened, since
    the last [Obs.Metrics.reset].  A phase reports the {!sub_stats} of
    a read taken after it and one taken before. *)

val record_path : t -> key:string -> string
(** Absolute path of the record file {!put} commits for [key] (tests,
    bench). *)

val object_files : t -> string list
(** All files under [objects/], relative to it, sorted. *)

val object_path : t -> string -> string
(** The absolute path of an {!object_files} entry. *)

type file_kind =
  | Record_file  (** where {!find} reads a key's record from *)
  | Tmp_file  (** an in-flight commit *)
  | Stray_file  (** a file no key is read from *)

val file_kind : string -> file_kind
(** What an {!object_files} entry is: [fsck] asks, so the layout is
    written in this module alone. *)
