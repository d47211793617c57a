(** Request bodies: what each work request actually runs.

    Every handler is deterministic — its result (and its fuel
    consumption) is a pure function of the request and the attempt
    number — so responses are byte-identical whether the work ran
    speculatively on a pool domain or inline in the scheduler's
    replay.

    Fuel: each attempt runs under its own {!Resilience.Deadline} of
    [fuel] units and spends them before the work they pay for (one
    per corpus variant, scenario and consistency group; an exploit
    request spends one up front and one before each row).  Exhaustion
    is a typed {!outcome}, not an exception — the scheduler maps it
    to a [deadline] response.  Bad arguments (an unknown app,
    variant or plan, or a {!Fault.Catalog.disk} plan, which would
    tear the server's own store) raise
    {!Resilience.Quarantine.Reject}; anything else that escapes is a
    crash and quarantines the request.

    The server memoizes [lint], [analyze] and [exploit]: without an
    injector their result, and the units they spend, do not depend on
    the attempt, so a repeated request is answered by {!replay}.
    [boom fault] depends on the attempt by design, and [chaos]
    installs an injector of its own, so neither is memoized. *)

type outcome =
  | Done of Json.t
  | Deadline_hit of { spent : int }

val model_of : string -> Pfsm.Model.t
(** The {!Exploit.Table} application's model.
    @raise Resilience.Quarantine.Reject on an unknown name. *)

val scenarios_of : string -> Pfsm.Env.t list
(** The canned exploit + benign scenarios for an app.
    @raise Resilience.Quarantine.Reject on an unknown name. *)

val run : attempt:int -> fuel:int -> Protocol.work -> outcome * int
(** Execute one attempt of a work request under [fuel]; the [int] is
    the fuel actually spent (the scheduler advances virtual time by
    it). *)

val memoizable : Protocol.work -> bool
(** [lint], [analyze] and [exploit]. *)

val replay : fuel:int -> units:int -> Json.t -> outcome * int
(** What {!run} gives under [fuel] for a memoizable request whose
    [Done payload] spent [units]: those units spent one at a time
    against [max 1 fuel], so the outcome and the spend are the same
    as a recomputation's. *)
