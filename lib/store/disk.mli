(** The on-disk content-addressed store.

    Layout under the store root:

    {v
    objects/<k0k1>/<k2k3>/<key>.rec   one checksummed record per key
    objects/.../<key>.<tag>.tmp       in-flight commits (orphaned by a crash)
    v}

    The object tree is the store's only index: a key is stored iff
    its record file is.  Files beside [objects/] are never read, so a
    store directory older builds left a key journal in serves as
    is.  Keys are lowercase hex digests (two-level sharding on the
    first four characters).  A commit is tmp+write+rename and nothing
    else, so a reader never observes a half-written record under an
    honest filesystem; torn and flipped records (crashes, injected
    faults) are caught by the record checksum on read.

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

val dir : t -> string

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
(** Absolute path of the record file for [key] (tests, fsck). *)

val object_files : t -> string list
(** All files under [objects/], relative to it, sorted. *)
