(** A per-resource circuit breaker.

    The classic three-state machine over a {e virtual} clock (the
    supervisor's logical time, advanced by attempts and backoff
    delays, never by the wall):

    {ul
    {- [Closed] — calls flow; [failure_threshold] consecutive
       failures trip it [Open];}
    {- [Open] — calls are refused until [cooldown] virtual time has
       passed since the trip, then the next {!acquire} moves to
       [Half_open];}
    {- [Half_open] — one probe is allowed through; success closes the
       breaker, failure re-opens it.}}

    The breaker can never move [Open] to [Closed] without passing
    [Half_open] — {!edges} records every distinct edge taken so the
    property is checkable.  A trip is a typed record naming the
    resource, the virtual time and the fault that tripped it; the
    breaker keeps the count of its trips and the last one, so a
    breaker that trips for as long as a server runs stays the same
    size. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;  (** consecutive failures that trip it *)
  cooldown : int;           (** virtual time Open before probing *)
}

val default_config : config
(** threshold 3, cooldown 200 virtual ms. *)

type trip = {
  resource : string;
  at : int;                       (** virtual time of the trip *)
  consecutive_failures : int;
  cause : string;                 (** the failure that tripped it *)
}

type t

val create : ?config:config -> resource:string -> unit -> t

val resource : t -> string

val state : t -> state

val trip_count : t -> int

val last_trip : t -> trip option

val edges : t -> (state * state) list
(** Every distinct state change taken so far, in the order first
    taken. *)

val acquire : t -> now:int -> bool
(** May a call proceed at virtual time [now]?  On an [Open] breaker
    whose cooldown has passed this transitions to [Half_open] and
    admits the probe. *)

val success : t -> unit
(** The admitted call succeeded: close (via [Half_open] if open). *)

val failure : t -> now:int -> cause:string -> unit
(** The admitted call failed. *)

type table
(** One breaker per resource, created on first use. *)

val table : config -> table

val lookup : table -> string -> t
(** The resource's breaker, created (with the table's config) the
    first time the resource is looked up. *)

val all : table -> t list
(** Every breaker of the table, in creation order. *)

val state_to_string : state -> string

val pp : Format.formatter -> t -> unit
