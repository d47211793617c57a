(** The request loop: admission → supervision → pool → trace.

    {!run} pulls request lines from a source, admits work requests
    into the bounded {!Admission} queue (shedding with typed
    [overloaded] once it is full), and at every scheduling tick — a
    [flush] request, [shutdown], end of input — drains the queue as
    one batch.  Each request of a batch runs through the supervision
    engine, {!Resilience.Retry.run}: a deterministic per-request retry
    schedule, behind a circuit {!Resilience.Breaker} per request
    {e class} (so a poison class trips without taking down the others
    — breakers persist across batches).  This module keeps only what
    is particular to serving: per-attempt {!Resilience.Deadline} fuel
    inside the handler, latency, the typed response for each verdict,
    and store-degraded accounting.  Every admitted request gets
    exactly one terminal response.

    Time is virtual: the clock ticks once per work-request arrival,
    once per attempt, by each backoff delay and by the fuel a
    handler spends — so per-request latency (completion minus
    admission) is a pure function of the request script, and the
    whole response stream (summary line included) is byte-identical
    at every [-j].

    Parallelism is {!Resilience.Supervisor.speculate}: first attempts
    of a batch run on the {!Par} pool up front, keyed by queue
    position, and the sequential replay consumes each result at the
    request's first attempt and owns every piece of shared state
    (clock, breakers, responses).  Speculation runs at every [-j] so
    traced spans land at the same coordinates for every job count; it
    is skipped under an active fault injector (its PRNG stream is
    order-sensitive) and under a store. *)

type config = {
  capacity : int;      (** admission queue bound *)
  default_fuel : int;  (** per-attempt handler fuel unless the request says *)
  max_line : int;      (** oversized request lines get a typed error *)
  retry : Resilience.Retry.policy;
      (** its seed is mixed with each request's id and arrival time
          into that request's retry schedule *)
  breaker : Resilience.Breaker.config;
}

val default_config : config
(** capacity 16, fuel 64, max_line 65536, the default retry/breaker
    policies (retry seed 20021130). *)

type summary = {
  admitted : int;
  shed : int;
  completed : int;     (** [ok] responses *)
  errors : int;        (** [error] responses (rejected / malformed args) *)
  deadlined : int;     (** [deadline] responses *)
  quarantined : int;   (** [quarantined] responses *)
  malformed : int;     (** unparseable or oversized lines *)
  stats_served : int;
  batches : int;
  vt : int;            (** final virtual time *)
  drained : bool;      (** input ended via EOF/shutdown and the queue emptied *)
  latencies : int list;  (** completed-request latencies, completion order *)
  report : Resilience.Run_report.t;  (** one item per admitted request *)
  store : Store.Disk.stats option;
      (** this run's delta against the ambient persistent store, when
          the CLI installed one ([None] otherwise — the summary JSON
          then renders byte-identically to the store-less format) *)
  store_degraded : int;
      (** requests that hit store corruption or a failed store write
          during some attempt and completed by recompute instead;
          always 0 without a store.  Speculation is disabled while a
          store is installed so this accounting (and the store delta)
          is per-request well-defined and [-j]-independent. *)
}

val accounted : summary -> bool
(** Every admitted request got exactly one terminal response — the
    zero-lost-requests contract. *)

val percentile : int -> int list -> int
(** Nearest-rank percentile; 0 on the empty list. *)

val summary_to_json : summary -> Json.t

val pp_summary : Format.formatter -> summary -> unit

val run :
  ?config:config -> emit:(string -> unit) -> (unit -> string option) -> summary
(** Serve until the source returns [None] (EOF / interrupt) or a
    [shutdown] request arrives, then drain: process everything
    admitted, emit the summary as a final JSONL line, and return it.
    [emit] receives each response line (no trailing newline). *)

val run_script : ?config:config -> string list -> string list * summary
(** {!run} over an in-memory request script; returns the emitted
    lines (summary line last) and the summary. *)
