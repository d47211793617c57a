(** The process-wide ambient store handle.

    The CLI opens one store per run and installs it here; memoisation
    layers ({!Pfsm.Analysis.run_memo}, the linter's corpus sweep) pick
    it up without threading a handle through every signature.

    Safety valve: {!ambient} answers [None] while a result-perturbing
    fault plan is active ([Fault.Plan.sim_active]), because entries
    computed under such a plan would poison the store for honest runs.
    Durability-only plans (the [io_*] knobs) do not bypass the store —
    exercising it under those is the whole point. *)

val set : Disk.t option -> unit
(** Install (or clear) the ambient store. *)

val get : unit -> Disk.t option
(** The installed handle, ignoring fault plans (CLI teardown, stats). *)

val ambient : unit -> Disk.t option
(** The installed handle, or [None] when a sim-active fault plan is
    running on this domain. *)

val cached : tag:string -> key:string -> (unit -> 'a) -> 'a
(** [cached ~tag ~key compute] is [compute ()] routed through the
    ambient store: a verified record under [key] whose payload decodes
    with [tag] short-circuits the computation; anything else — miss,
    corrupt record, stale payload, no store installed — degrades to
    [compute ()], writing the result back when a store is present.
    Never raises beyond what [compute] raises. *)

val with_store : Disk.t option -> (unit -> 'a) -> 'a
(** Install for the duration of [f], restoring the previous handle
    afterwards. *)
