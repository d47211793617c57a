(** Deterministic exploration of process interleavings.

    File race conditions (time-of-check-to-time-of-use) only manifest
    under particular schedules.  Instead of racing wall-clock time,
    the scheduler {e enumerates every interleaving} of two processes'
    atomic steps and evaluates a property on the resulting state —
    making the xterm race (Figure 5) a deterministic, exhaustively
    checkable experiment.

    Exploration honours an optional {!Fault.Budget}: the result
    carries explicit coverage, so a fuel-bounded run reports
    [Partial] rather than silently truncating.  An installed fault
    plan may also perturb individual schedules (drop or replay one
    step) through [Fault.Hooks.schedule_mutation].

    Steps may declare a static {!Effect} footprint ({!step_e}); the
    opt-in [?independent] parameter of {!explore} / {!explore_n} then
    enables sleep-set partial-order reduction: only one representative
    per Mazurkiewicz trace is run, which preserves every reachable
    final state (hence every [check] verdict value) while running far
    fewer schedules.  Without [?independent] the enumeration is
    byte-identical to the unreduced scheduler. *)

type 'st step = {
  label : string;
  effects : Effect.t list;  (** static footprint; [[]] when undeclared *)
  run : 'st -> unit;
}

val step : string -> ('st -> unit) -> 'st step
(** A step with an empty (undeclared) footprint. *)

val step_e : string -> effects:Effect.t list -> ('st -> unit) -> 'st step
(** A step with a declared effect footprint.  The footprint must
    over-approximate every access the step can perform on any schedule
    (the footprint-soundness harness checks this dynamically). *)

val interleavings : 'a list -> 'a list -> 'a list list
(** All merges of the two sequences that preserve each sequence's
    internal order.  Length is [C(n+m, n)]. *)

val interleavings_seq : 'a list -> 'a list -> 'a list Seq.t
(** The same merges, lazily, in the same order. *)

val interleaving_count : int -> int -> int
(** [C(n+m, n)] without materialising the schedules.  Saturates to
    [max_int] when the true count exceeds it (first at [C(66,33)]) —
    never a silently wrapped value.  Raises [Invalid_argument] on
    negative lengths. *)

type 'r verdict = {
  schedule : string list;     (** executed step labels in order *)
  result : 'r;
}

type 'r exploration = {
  verdicts : 'r verdict list;
  coverage : Fault.Budget.coverage;
      (** [Complete] when the schedule enumeration was drained — under
          reduction that can be far fewer runs than the total
          interleaving count *)
  explored : int;  (** schedules actually run *)
}

val explore :
  ?budget:Fault.Budget.t ->
  ?independent:(Effect.t list -> Effect.t list -> bool) ->
  init:(unit -> 'st) ->
  a:'st step list ->
  b:'st step list ->
  check:('st -> 'r option) ->
  unit ->
  'r exploration
(** Run every interleaving (or as many as the budget allows) from a
    fresh state; a step raising one of the osmodel's typed errors
    ({!Filesystem.Fs_error}, [Fault.Condition.Simulated]) is a no-op
    for that process (a failed syscall does not stop the attacker),
    while programming errors propagate.  Collect each schedule on
    which [check] yields a result.  With [?independent] (usually
    {!Effect.independent}), sleep-set reduction runs one schedule per
    trace instead of all of them. *)

(** {2 N processes} *)

val interleavings_n : 'a list list -> 'a list list
(** All merges of any number of sequences — the multinomial
    generalisation of {!interleavings}. *)

val interleavings_n_seq : 'a list list -> 'a list Seq.t

val interleaving_count_n : int list -> int
(** [(Σnᵢ)! / Πnᵢ!] without materialising the schedules; saturates
    like {!interleaving_count}. *)

val schedules_n :
  ?independent:(Effect.t list -> Effect.t list -> bool) ->
  'st step list list ->
  'st step list Seq.t
(** The schedule enumeration itself: full interleavings, or the
    sleep-set-reduced representatives when [?independent] is given.
    Exposed so callers (the race detector) can filter schedules before
    running them. *)

val schedules_por :
  independent:(Effect.t list -> Effect.t list -> bool) ->
  'st step list list ->
  'st step list Seq.t
(** The sleep-set enumeration behind [schedules_n ~independent].
    Sleep and explored sets are int bitmasks over process indices —
    zero allocation per branch decision.  Empty processes are dropped
    first.
    @raise Invalid_argument when more than [Sys.int_size - 1]
    non-empty processes remain (one bit each). *)

val run_schedules :
  ?budget:Fault.Budget.t ->
  init:(unit -> 'st) ->
  check:('st -> 'r option) ->
  total:int ->
  'st step list Seq.t ->
  'r exploration
(** Run an explicit schedule sequence under the budget; [total] is the
    unreduced interleaving count reported by a [Partial] coverage. *)

val explore_n :
  ?budget:Fault.Budget.t ->
  ?independent:(Effect.t list -> Effect.t list -> bool) ->
  init:(unit -> 'st) ->
  procs:'st step list list ->
  check:('st -> 'r option) ->
  unit ->
  'r exploration
(** {!explore} over any number of concurrent processes. *)
