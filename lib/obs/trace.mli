(** Deterministic event tracing over virtual time.

    Every event is tagged with a coordinate [(epoch, slot, seq)] that
    is a pure function of the program, never of the schedule: [epoch]
    is a global generation bumped by the {!Par} trace hooks at every
    top-level map boundary (recorded relative to {!start}, so repeated
    in-process runs of one workload serialize identically), [slot] is the Par item index that emitted
    the event ([-1] for the orchestrating domain), and [seq] counts
    emissions within an (epoch, slot).  {!drain} merges the per-domain
    ring buffers by sorting on that coordinate and assigns each event
    its merged rank as virtual time — so the serialized trace for a
    given seed is byte-identical at every [-j].

    Buffers are bounded to 4096 events per (epoch, slot);
    the cutoff depends only on [seq], so drops are deterministic. *)

type ph = B | E | I  (** span begin / span end / instant *)

type event = {
  epoch : int;
  slot : int;
  seq : int;
  ph : ph;
  name : string;
  cat : string;
  args : (string * string) list;
  wall_us : int option;
      (** wall-clock annotation, only when {!set_wall_clock} installed
          one (breaks byte-identity; bench-only) *)
}

val enabled : unit -> bool

val start : unit -> unit
(** Clear all buffers and begin recording. *)

val stop : unit -> unit

val emit :
  ph:ph -> ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record one event in the calling domain's buffer.  No-op while
    tracing is off.  Prefer {!Span.with_span} / {!Span.instant}. *)

val emit_with :
  ph:ph -> ?cat:string -> string -> ('a -> (string * string) list) -> 'a -> unit
(** [emit_with ~ph name render x] is [emit ~ph ~args:(render x) name],
    except that [render] runs only for an event the calling slot keeps:
    past the per-slot bound the event is counted as dropped unrendered. *)

val drain : unit -> event list
(** Stop recording, merge every domain's buffer into the deterministic
    order, and clear the buffers. *)

val dropped : unit -> int
(** Events discarded by the per-slot cap since {!start}. *)

val set_wall_clock : (unit -> float) option -> unit
(** Install a wall clock (e.g. [Unix.gettimeofday]); subsequent events
    carry a [wall_us] annotation relative to {!start}.  [None]
    restores pure virtual time. *)

val to_jsonl : event list -> string
(** One JSON object per line, [vt] = merged rank. *)

val to_chrome : event list -> string
(** Chrome [trace_event] JSON ([{"traceEvents": [...]}]); [ts] is
    virtual time, [tid] is [slot + 1]. *)
