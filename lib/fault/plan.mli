(** A deterministic description of which faults to inject where.

    A plan is pure data: together with its PRNG seed it fully
    determines every injection decision, so the same plan always
    produces the same perturbed execution.  [none] (and any plan with
    every knob off) injects nothing — the seams are no-ops and
    existing behaviour is bit-for-bit unchanged.

    A plan marked [benign] only perturbs within the envelope the
    simulated programs are specified to tolerate (e.g. fragmenting
    [recv] at the chunk size the code already handles); the fault
    matrix asserts that model-vs-simulation agreement survives every
    benign plan. *)

type t = {
  name : string;
  seed : int;
  benign : bool;   (** agreement must survive this plan *)
  heap_fail_percent : int option;   (** chance a malloc is denied *)
  recv_max_chunk : int option;      (** clamp every recv to this many bytes *)
  socket_reset_after : int option;  (** reset the connection at the k-th recv *)
  fs_deny_percent : int option;     (** per-path chance of EACCES *)
  sched_drop_percent : int option;  (** chance a schedule loses one step *)
  sched_dup_percent : int option;   (** chance a schedule replays one step *)
  bitflip_percent : int option;     (** chance a bulk memory write is corrupted *)
  io_torn_percent : int option;     (** chance a store write is truncated mid-record *)
  io_flip_percent : int option;     (** chance a store write has one bit flipped *)
  io_error_percent : int option;    (** chance a store write fails ENOSPC/EACCES *)
  io_crash_percent : int option;    (** chance a commit dies before its rename *)
}

val none : t

val sim_active : t -> bool
(** A simulation knob (heap/recv/socket/fs/sched/bitflip) is on: the
    plan can perturb workload {e results}, so result caches must not
    serve or record entries computed under it. *)

val io_active : t -> bool
(** A store-I/O knob is on: the plan perturbs only the durability of
    persisted records, never computed values. *)

val pp : Format.formatter -> t -> unit
