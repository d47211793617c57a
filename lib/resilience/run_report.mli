(** The typed result of a supervised sweep.

    A sweep never ends in an exception: every work item it saw is
    accounted for here, either completed (possibly after retries,
    possibly satisfied from a checkpoint) or quarantined with its
    typed cause.  Reports are deterministic — a sweep under the same
    seeds emits a byte-identical {!to_json} — and {!same_outcomes}
    is the resume contract: an interrupted-then-resumed sweep must
    reach the same per-item outcomes as an uninterrupted one. *)

type outcome =
  | Completed of { attempts : int }
  | Quarantined of { attempts : int; cause : Quarantine.cause }

type item = {
  id : string;
  outcome : outcome;
  from_checkpoint : bool;
      (** completed by a previous run; [attempts] is what the journal
          recorded *)
}

type t = {
  label : string;
  seed : int;    (** the retry policy's seed *)
  items : item list;  (** processing order *)
  waited : int;  (** total virtual backoff time this run *)
  journal_skipped : int;
      (** journal lines the checkpoint could not parse (a torn final
          line after a crash, corruption) — surfaced, never silently
          dropped *)
}

val total : t -> int

val completed : t -> int
(** Includes checkpointed items. *)

val retried : t -> int
(** Items that needed more than one attempt and still completed. *)

val resumed : t -> int
(** Items satisfied from the checkpoint. *)

val quarantined : t -> int

val degraded : t -> bool
(** At least one quarantined item. *)

val ok : t -> bool

val max_attempts : t -> int
(** The largest attempt count any item consumed (0 on empty). *)

val no_lost : expected:int -> t -> bool
(** Every expected item is accounted for: [total t = expected]. *)

val same_outcomes : t -> t -> bool
(** Same items, same outcomes, in the same order — ignoring
    [from_checkpoint] and [waited], which legitimately differ between
    a resumed and an uninterrupted run. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
