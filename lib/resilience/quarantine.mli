(** Isolation for failing work items.

    When a supervised sweep cannot complete an item — its retries are
    exhausted, its resource's circuit breaker is open, or the work was
    rejected or crashed outright — the item is not dropped and does
    not abort the sweep: it is {e quarantined} together with a typed
    {!cause}, and the sweep continues.  The item's
    {!Run_report.Quarantined} outcome is the one record of that
    verdict; a [--resume] invocation re-runs quarantined items from
    the checkpoint journal, which records completions only. *)

type cause =
  | Retries_exhausted of { attempts : int; last : Fault.Condition.t }
      (** every attempt hit a (typed, simulated) environmental fault *)
  | Breaker_open of { resource : string }
      (** the item's resource tripped its circuit breaker and did not
          recover within the item's retry schedule *)
  | Rejected of { detail : string }
      (** the work item itself is invalid (e.g. a malformed CSV row) —
          retrying cannot help *)
  | Crash of { exn : string }
      (** an unexpected exception: a bug, not an environmental fault *)

exception Reject of string
(** Raised by work items to signal {!Rejected} — a typed, terminal
    "this input is bad" that supervision never retries. *)

val cause_to_string : cause -> string

val pp_cause : Format.formatter -> cause -> unit

val isolate : id:string -> attempts:int -> unit
(** Announce that item [id] was quarantined after [attempts]: bump
    [resilience.quarantine.isolated] and emit a [quarantine] trace
    instant.  Called exactly once per quarantined item, where its
    report outcome is decided. *)
