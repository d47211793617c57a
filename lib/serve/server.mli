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
    exactly one terminal response.  A finished request leaves only
    counters behind (the latency percentiles come from a latency ->
    count table), so a long-running server does not grow with the
    number of requests it has answered.

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
    order-sensitive) and under a store.

    A run memoizes its [lint], [analyze] and [exploit] answers
    ({!Handlers.memoizable}): the first [Done] of a work item leaves
    its payload and fuel units in a table of at most 22 entries, and a
    later request for the item is answered by {!Handlers.replay}
    against its own fuel, byte-identically to a recomputation.  A
    batch speculates only the requests the replay will compute, the
    replay alone writes the table, and the table is bypassed while a
    fault injector is installed.  Hits count in [serve.memo.hits]. *)

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
  latency_p50 : int;   (** nearest-rank p50 of completed-request latencies *)
  latency_p99 : int;
  retried : int;       (** [ok] responses that took more than one attempt *)
  max_attempts : int;  (** the most attempts any admitted request took *)
  waited : int;        (** virtual time spent in retry backoffs *)
  store : Store.Disk.stats option;
      (** this run's delta against the ambient persistent store, when
          the CLI installed one ([None] otherwise — the summary JSON
          then renders byte-identically to the store-less format); a
          request answered from the memo reads nothing, so these
          count first-time requests only *)
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

val percentile : int -> (int * int) list -> int
(** Nearest-rank percentile over an ascending [(latency, count)]
    table; 0 when the counts sum to 0. *)

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
