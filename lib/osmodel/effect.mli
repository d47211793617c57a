(** Static effect footprints for scheduler steps.

    Every {!Scheduler.step} may declare the set of objects it reads and
    mutates — filesystem paths (content and attributes kept as separate
    objects for the {e detector}, conflated for the {e conflict
    relation}), the socket stream, uids, and named memory objects.
    Footprints are over-approximations: a step's declared footprint
    must contain every access the step can dynamically perform on any
    schedule (checked by the footprint-soundness harness in
    [test_racecheck]).

    Two footprints that share no conflicting pair commute in every
    state, which makes {!independent} a sound independence relation for
    partial-order reduction, and makes check/use pairs over [Path_attr]
    objects statically scannable for TOCTTOU windows. *)

type obj =
  | Path of string  (** a file's content, keyed by normalised path *)
  | Path_attr of string
      (** a path's metadata: existence, kind, mode, owner, binding *)
  | Socket_stream  (** the modelled network stream *)
  | Uid of string  (** a user identity *)
  | Mem of string  (** a named memory object (stack frame, buffer) *)

type action = Reads | Writes | Creates | Unlinks | Chmods

type t = { action : action; obj : obj }

val reads : obj -> t
val writes : obj -> t
val creates : obj -> t
val unlinks : obj -> t
val chmods : obj -> t

val write_like : action -> bool
(** Everything but [Reads]. *)

val key : t -> string
(** The conflict key.  [Path p] and [Path_attr p] share the key
    ["path:" ^ p]: unlink/relink changes both the binding and what a
    stat returns, so separating them would be unsound. *)

val conflicts : t -> t -> bool
(** Same key and at least one side write-like. *)

val independent : t list -> t list -> bool
(** No conflicting pair across the two footprints.  Footprint-disjoint
    steps commute in every state — the independence relation handed to
    {!Scheduler.explore_n} for sleep-set reduction. *)

val covers : t -> t -> bool
(** [covers footprint_entry access] — a read access is covered by any
    entry on its key; a write-like access needs a write-like entry. *)

val covered_by : t -> t list -> bool
(** [covered_by access footprint] — some entry {!covers} the access. *)

val action_to_string : action -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {2 Dynamic-access observer}

    The soundness harness installs an observer for the extent of one
    step; the osmodel primitives ({!Filesystem}, {!Socket}) record each
    access they perform.  Single-domain only; with no observer
    installed, {!record} is free. *)

val record : t -> unit

val with_observer : (t -> unit) -> (unit -> 'a) -> 'a
