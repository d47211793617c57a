(** The chaos harness: every {!Fault.Catalog} plan replayed against
    the supervised pipeline, end to end.

    For each plan, three legs of the analysis pipeline run inside
    {!Fault.Hooks.run}: the model-vs-simulation {e matrix} (one item
    per application plus the Section-6 lemma), the static-analysis
    {e lint} corpus sweep, and the CSV {e ingest} of the curated
    database (each row passing through the corruption seam).  The
    harness then asserts the supervision contract:

    {ul
    {- {e no lost items} — every leg's report accounts for exactly the
       items it was given, however hostile the plan;}
    {- {e bounded retries} — no item exceeded the retry policy;}
    {- {e determinism} — the same seed yields a byte-identical JSON
       report ({!stable}).}} *)

type leg_error = { stage : string; detail : string }
(** A leg that could not run at all — e.g. the ingest document itself
    failed to parse.  Typed so the harness reports it as a contract
    violation (CLI exit 1) instead of crashing with a raw backtrace
    (exit 125). *)

type leg_outcome = Ran of Resilience.Run_report.t | Failed of leg_error

type leg = {
  leg_name : string;  (** ["matrix"], ["lint"] or ["ingest"] *)
  expected_items : int;  (** how many items the leg was given *)
  outcome : leg_outcome;
}

type plan_run = {
  plan : Fault.Plan.t;
  events : int;  (** injected faults that actually fired *)
  legs : leg list;
}

type report = {
  seed : int;
  retry_max : int;  (** the policy's attempt ceiling, for {!violations} *)
  runs : plan_run list;
  memo : Pfsm.Analysis.memo_stats;
      (** analysis-memo counters for this run (the memo is reset when
          the run starts, so consecutive runs report identical
          numbers) *)
}

val default_seed : int

val run :
  ?seed:int ->
  ?plans:Fault.Plan.t list ->
  ?config:Resilience.Supervisor.config ->
  ?csv:string ->
  unit ->
  report
(** Defaults: {!default_seed}, {!Fault.Catalog.all},
    {!Resilience.Supervisor.default_config}.  The supervision retry
    seed is derived from [seed] and the plan name, so every plan owns
    its schedules and the whole report is a pure function of
    [(seed, plans, config)].  [csv] overrides the ingest leg's
    document (default: the curated database rendered to CSV) — a
    document that fails to parse yields a [Failed] ingest leg, never
    an exception. *)

val violations : report -> string list
(** Human-readable contract violations; empty iff {!ok}. *)

val ok : report -> bool

val stable : ?seed:int -> ?plans:Fault.Plan.t list -> unit -> bool
(** Run twice; byte-compare the JSON. *)

val to_json : report -> string

val pp : Format.formatter -> report -> unit

(** {1 Server soak}

    The fault catalog replayed against a live {!Serve.Server}: for
    each plan, a canned request script — mixed work classes, a burst
    past the admission bound, malformed and oversized lines, boom
    requests that crash and fault — runs through the server under
    {!Fault.Hooks.run}, and the harness asserts {e zero lost
    requests}: every admitted request got exactly one terminal
    response, every shed request a typed [overloaded], every bad line
    a typed error, and the server drained cleanly.  It also asserts
    that no request took more attempts than the retry policy allows
    (the summary's [max_attempts]). *)

type soak_run = {
  soak_plan : Fault.Plan.t;
  soak_events : int;  (** injected faults that actually fired *)
  lines_emitted : int;  (** response lines, summary included *)
  summary : Serve.Server.summary;
}

type soak_report = {
  soak_seed : int;
  script_lines : int;
  work_requests : int;  (** work lines in the script: admitted + shed *)
  expect_shed : int;    (** the burst minus the admission capacity *)
  expect_malformed : int;
  soak_runs : soak_run list;
}

val soak :
  ?seed:int ->
  ?plans:Fault.Plan.t list ->
  ?config:Serve.Server.config ->
  unit ->
  soak_report
(** Defaults: {!default_seed}, {!Fault.Catalog.all}, and a server
    config with capacity 4 / max_line 512 so the script's burst and
    oversized line actually bite.  Each plan's server seed is derived
    from [seed] and the plan name. *)

val soak_violations : soak_report -> string list
(** Human-readable contract violations; empty iff the JSON reads
    ["ok": true]. *)

val soak_stable : ?seed:int -> ?plans:Fault.Plan.t list -> unit -> bool
(** Run twice; byte-compare the JSON. *)

val soak_to_json : soak_report -> string

val pp_soak : Format.formatter -> soak_report -> unit

(** {1 Disk chaos}

    The durability-fault catalog ({!Fault.Catalog.disk}) replayed
    against the persistent result store: for each plan, a cold and a
    warm corpus sweep run against a fresh store with every write
    subject to the plan's io knobs (torn writes, bit flips,
    ENOSPC/EACCES, crash-before-rename), then [fsck --repair] and one
    honest warm run over the repaired store.  The contract is {e
    graceful degradation}: all three store-backed sweeps must render
    byte-identically to a store-less reference sweep (faults may cost
    recomputes, never results), and repair must leave the store
    clean. *)

type disk_run = {
  disk_plan : Fault.Plan.t;
  disk_events : int;  (** injected io faults that actually fired *)
  disk_store : Store.Disk.stats;  (** the faulted cold+warm runs' counters *)
  sweep_matches : bool;  (** both faulted sweeps == the reference *)
  fsck : Store.Fsck.report;  (** the [~repair:true] scan *)
  post_repair : Store.Disk.stats;  (** one honest warm run after repair *)
  post_repair_matches : bool;
}

type disk_report = { disk_runs : disk_run list }

val disk : ?plans:Fault.Plan.t list -> unit -> disk_report
(** Default: {!Fault.Catalog.disk}.  Each plan's faults are drawn from
    the plan's own seed, so the leg takes none.  Each plan gets a
    fresh scratch store under the system temp directory, removed
    before returning. *)

val disk_violations : disk_report -> string list
(** Human-readable contract violations; empty iff the JSON reads
    ["ok": true]. *)

val disk_to_json : disk_report -> string

val pp_disk : Format.formatter -> disk_report -> unit
