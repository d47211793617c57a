(** The supervision engine: seeded exponential backoff, and the one
    retry/breaker loop every supervised caller runs.

    A policy fully determines its backoff schedule: the delays are
    exponential in the attempt number, capped at [max_delay], with
    jitter drawn from {!Vulndb.Prng} seeded by [seed] — so the same
    policy always waits the same (virtual) amounts and a retried run
    replays bit-for-bit.  Delays are {e virtual milliseconds}: {!run}
    advances a logical clock by them instead of sleeping, which keeps
    tests fast and schedules deterministic.

    The per-item machine is the pure {!step} (DESIGN §5.6); {!run}
    drives it, and owns everything around it: the breaker calls, the
    clock and the [resilience.retry.attempts] counter. *)

type policy = {
  max_attempts : int;   (** total tries, including the first (>= 1) *)
  base_delay : int;     (** virtual ms before the first retry *)
  max_delay : int;      (** cap on any single backoff *)
  jitter_percent : int; (** +- this percentage of the capped delay *)
  seed : int;           (** PRNG seed for the jitter stream *)
}

val default : policy
(** 5 attempts, base 50, cap 400, 25% jitter, seed 20021130. *)

val delays : policy -> int list
(** The full backoff schedule, [max_attempts - 1] entries: the wait
    before attempt 2, 3, ...  Pure: same policy, same list. *)

(** How an attempt failed. *)
type failure =
  | Refused of { resource : string }
      (** the resource's breaker was open; the work did not run *)
  | Failed of Fault.Condition.t  (** a transient, simulated fault *)
  | Rejected of string  (** the work raised {!Quarantine.Reject} *)
  | Crashed of string  (** any other exception, printed *)

type action =
  | Backoff of int  (** wait this long, then run the next attempt *)
  | Quarantine of Quarantine.cause  (** give up: the item's verdict *)

val step : policy -> attempt:int -> failure -> action
(** The transition after attempt [attempt] (>= 1) fails.  [Refused]
    and [Failed] back off by the schedule's [attempt]-th delay while
    [attempt < max_attempts], then quarantine as [Breaker_open] or
    [Retries_exhausted]; [Rejected] and [Crashed] quarantine at once.
    Pure. *)

val run :
  breaker:Breaker.t ->
  clock:int ref ->
  on_backoff:(attempt:int -> delay:int -> unit) ->
  policy ->
  (attempt:int -> 'a) ->
  ('a * int, Quarantine.cause * int) result
(** Run [work ~attempt] until it returns or {!step} quarantines it.
    Each attempt ticks [clock] once and asks [breaker] for admission;
    a refused attempt does not run the work.  A return is reported to
    the breaker as a success, an exception as a failure at the current
    [clock].  Each backoff advances [clock] by its delay, counts one
    [resilience.retry.attempts], and then calls [on_backoff].  The
    [int] is the number of attempts consumed, at most
    [max_attempts]. *)
