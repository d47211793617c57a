(** Supervised sweeps: run a batch of work items to a typed
    {!Run_report} no matter what the environment does.

    Each item runs under {!Retry.run}: transient
    {!Fault.Condition.Simulated} failures back off and retry on the
    deterministic {!Retry} schedule, behind the item's resource's
    circuit {!Breaker} (consecutive failures trip it; while it is
    open, attempts are refused and consume the item's schedule), and
    an item the engine gives up on is quarantined with its typed
    cause rather than dropped: its report outcome is
    {!Run_report.Quarantined}, the one record of that verdict, and
    {!Quarantine.isolate} announces it once.  This module adds the
    sweep's own concerns: the optional {!Checkpoint} (items a previous
    run completed are reported from the journal and not re-executed;
    fresh completions are marked as they happen), [stop_after], and
    the results.

    Retry schedules are derived per item — the policy seed is mixed
    with the item id — so outcomes do not depend on how many items a
    previous run already completed: an interrupted sweep resumed from
    its checkpoint reaches {!Run_report.same_outcomes} as an
    uninterrupted one.

    Time is virtual throughout: a logical clock advances one unit per
    attempt plus each backoff delay.  Nothing sleeps. *)

type config = { retry : Retry.policy; breaker : Breaker.config }

val default_config : config

type 'a item = {
  id : string;        (** unique within the sweep; the checkpoint key *)
  resource : string;  (** circuit-breaker key; items may share one *)
  work : unit -> 'a;
}

type 'a outcome = {
  report : Run_report.t;
  results : (string * 'a) list;
      (** values of the items completed {e this} run, in order *)
  breakers : Breaker.t list;  (** final breaker per resource, creation order *)
}

val run :
  ?label:string ->
  ?config:config ->
  ?checkpoint:Checkpoint.t ->
  ?stop_after:int ->
  'a item list ->
  'a outcome
(** [stop_after] simulates an interruption: after that many items
    have been executed (checkpoint skips not counted) the sweep stops
    dead, leaving the rest unprocessed and unreported — exactly what
    a kill would do.  Used by the resume tests and [--stop-after].

    The first invocation of each fresh item is speculated with
    {!speculate}, then the supervision loop replays sequentially,
    consuming each speculative result at the item's first invocation.
    Clock, breakers and checkpoint appends all live in the replaying
    domain, so {!Run_report} accounting stays exactly-once and the
    outcome is byte-identical to a sequential run for any job count —
    provided distinct items do not share mutable state.  The sweep
    runs sequentially, without speculation, under [stop_after] or an
    active fault injector.  It still speculates at [-j 1], where the
    pool runs the items in order, so a traced run's item spans sit at
    the same coordinates for every job count. *)

val speculate :
  label:string -> ('a -> 'b) -> (int * 'a) list -> int -> (unit -> 'b) -> 'b
(** Parallelism by speculation, shared by {!run} and the serve loop.
    [speculate ~label f keyed] runs [f] over every keyed input on the
    {!Par} pool up front, capturing exceptions, and returns [take]:
    [take i fallback] yields key [i]'s result the first time it is
    asked for (re-raising a captured exception), and [fallback ()]
    after that or for a key that was not speculated.  Callers key by
    list position, so items that share an id stay distinct. *)
