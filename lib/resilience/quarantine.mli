(** Isolation for failing work items.

    When a supervised sweep cannot complete an item — its retries are
    exhausted, its resource's circuit breaker is open, or the work was
    rejected or crashed outright — the item is not
    dropped and does not abort the sweep: it is {e quarantined}
    together with a typed {!cause}, and the sweep continues.  The
    quarantine store keeps the original item payload so a later run
    (or a [--resume] invocation) can retry it. *)

type cause =
  | Retries_exhausted of { attempts : int; last : Fault.Condition.t }
      (** every attempt hit a (typed, simulated) environmental fault *)
  | Breaker_open of { resource : string }
      (** the item's resource tripped its circuit breaker and did not
          recover within the item's retry schedule *)
  | Deadline_exceeded of { spent : int }
      (** a serve request spent its per-attempt fuel before it
          finished *)
  | Rejected of { detail : string }
      (** the work item itself is invalid (e.g. a malformed CSV row) —
          retrying cannot help *)
  | Crash of { exn : string }
      (** an unexpected exception: a bug, not an environmental fault *)

exception Reject of string
(** Raised by work items to signal {!Rejected} — a typed, terminal
    "this input is bad" that supervision never retries. *)

val retryable : cause -> bool
(** Whether a {e future} run could plausibly succeed: true for
    everything except {!Rejected} and {!Crash}. *)

val cause_to_string : cause -> string

val pp_cause : Format.formatter -> cause -> unit

type 'a entry = { id : string; item : 'a; attempts : int; cause : cause }

type 'a t

val create : unit -> 'a t

val isolate : 'a t -> id:string -> item:'a -> attempts:int -> cause -> unit

val entries : 'a t -> 'a entry list
(** Oldest first. *)

val count : 'a t -> int

val find : 'a t -> string -> 'a entry option

val pp_entry : Format.formatter -> 'a entry -> unit
