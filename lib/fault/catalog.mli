(** The canned fault plans the resilience harness runs under.

    Two are benign (the no-op plan and MTU-sized [recv]
    fragmentation): model-vs-simulation agreement must survive them
    unchanged.  The rest each violate one environmental assumption —
    allocation always succeeds, [recv] returns full chunks, the
    connection stays up, the filesystem cooperates, the scheduler
    runs every step once, memory holds its bits. *)

val none : Plan.t

val short_recv : Plan.t
(** 7-byte [recv] chunks: short and fragmented reads. *)

val heap_pressure : Plan.t
(** 60% of allocations are denied. *)

val fs_chaos : Plan.t
(** 55% of paths answer EACCES (deterministically per path). *)

val bitflip : Plan.t
(** 70% of bulk memory writes have one bit flipped. *)

val socket_reset : Plan.t
(** The connection resets at the second [recv]. *)

val all : Plan.t list

val smoke : Plan.t list
(** A three-plan subset for CI. *)

val disk : Plan.t list
(** The store-I/O fault catalog (disjoint from {!all}): replayed by
    the chaos disk leg against a warm persistent store.  These plans
    perturb only [Store.Io] durability, never computed values. *)

val disk_smoke : Plan.t list
(** A two-plan disk subset for CI. *)

val find : string -> Plan.t option
(** Searches {!all} and {!disk}. *)
