(** Deterministic multicore runtime.

    A fixed-size domain pool with chunked, index-ordered [map] /
    [filter_map].  The contract: for a pure item function, the result
    is byte-identical to the sequential run for every job count —
    parallelism changes wall-clock time, never values.  Seeded
    fan-outs split a per-item child seed ({!Seed.child}) instead of
    sharing a PRNG stream; order-sensitive code (an active fault
    injector) registers a {!add_serial_guard} and transparently
    degrades to sequential execution. *)

module Seed : sig
  (** [child ~seed ~index] derives a non-negative per-item seed via a
      splitmix64 finalizer.  Depends only on [(seed, index)] — never on
      domain assignment or scheduling. *)
  val child : seed:int -> index:int -> int
end

val max_jobs : int
(** Upper clamp on any configured job count. *)

val parse_jobs : string -> (int, string) result
(** Parse a job count: decimal digits only, so [Error] for anything
    else (a sign, a hex prefix, [_], whitespace) and for [0]; values
    above {!max_jobs} are clamped. *)

val jobs : unit -> int
(** The effective job count.  Resolved on first use from [DFSM_JOBS],
    falling back to [Domain.recommended_domain_count ()]; a malformed
    environment value is ignored here (the CLI rejects it up front via
    {!configure}). *)

val set_jobs : int -> unit
(** Set the job count (clamped to [1 .. max_jobs]); tears down and
    respawns the pool when the size changes.
    @raise Invalid_argument if [< 1]. *)

val configure : ?jobs:int -> unit -> (int, string) result
(** Resolve the job count for a CLI invocation: the explicit [?jobs]
    wins, else [DFSM_JOBS], else the hardware count.  Unlike {!jobs},
    a malformed environment value (or non-positive [?jobs]) is an
    [Error] — callers map it to exit code 2. *)

val unique_tag : unit -> int
(** A process-unique non-negative integer (atomic counter), safe to
    draw from any domain.  Used for collision-free scratch-file names
    (a store handle's tmp files) when several pool workers write
    concurrently — never for anything output-affecting, so determinism
    is untouched. *)

val add_serial_guard : (unit -> bool) -> unit
(** Register a predicate checked at every [map] entry; when any guard
    returns [true] the map runs sequentially in the calling domain.
    Used by [Fault.Hooks] so an active injector keeps its
    deterministic event stream. *)

exception Error of { batch : string; index : int; worker : int }
(** A pool invariant broke: after a completed job, the result slot of
    [index] in the batch labelled [batch] was empty (the item never
    ran, or its write was lost).  [worker] is the pool worker that
    claimed the item (0 = the submitting domain, [-1] = nobody).
    Diagnosable, unlike the [assert false] it replaces. *)

type trace_hooks = {
  on_map_start : total:int -> unit;  (** submitting domain, before any item *)
  on_item : int -> unit;  (** running domain, just before item [i] *)
  on_map_end : unit -> unit;  (** submitting domain, after reduction *)
}
(** Observability side-channel (registered by [Obs.Trace]): fires
    around every {e top-level} map — nested maps are silent — and
    identically on the sequential and pooled paths, so positions
    derived from the hooks never depend on the job count.  Hooks must
    be cheap bookkeeping and must never raise. *)

val set_trace_hooks : trace_hooks -> unit

val map : ?label:string -> ('a -> 'b) -> 'a array -> 'b array
(** Ordered parallel map: [map f xs] equals [Array.map f xs] for pure
    [f], chunked over the domain pool.  If any item raises, the
    exception of the lowest failing index is re-raised after all items
    settle.  Nested maps (from inside an item function) run
    sequentially.  [label] names the batch in a potential {!Error}.
    @raise Error on a lost result slot (a pool bug). *)

val filter_map : ?label:string -> ('a -> 'b option) -> 'a array -> 'b array

val map_list : ?label:string -> ('a -> 'b) -> 'a list -> 'b list
(** [map] over lists, preserving order. *)

(** Test seam (unit tests only): force the missing-result path of the
    next pooled map. *)
module For_testing : sig
  val drop_result : int option ref
end

val teardown : unit -> unit
(** Join all pool domains.  Safe to call when no pool exists; a later
    map respawns on demand. *)
