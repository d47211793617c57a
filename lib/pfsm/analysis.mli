(** Whole-model analysis: run a set of attack scenarios through a
    model, locate the hidden paths, and classify every pFSM by the
    Section-6 taxonomy. *)

type pfsm_finding = {
  operation : string;
  pfsm : Primitive.t;
  missing_check : bool;     (** implementation performs no check at all *)
  hidden_hits : int;        (** scenarios that drove its hidden path *)
  example : Env.t option;   (** one such scenario *)
}

type report = {
  model : Model.t;
  scenarios_run : int;
  traces : (Env.t * Trace.t) list;
  findings : pfsm_finding list;
}

val analyze : ?par:bool -> ?memo:bool -> Model.t -> scenarios:Env.t list -> report
(** [par] fans the scenarios out over the {!Par} domain pool (ordered
    reduction — the report is byte-identical to the sequential run for
    any job count); defaults to [false].  [memo] routes each scenario
    through {!run_memo}; it defaults to [true] when an ambient
    {!Store.Handle} is installed (so every analysis goes through the
    persistent store) and [false] otherwise.  Neither changes the
    report. *)

(** {2 Digest-keyed trace memo}

    [Model.run] is pure, so a trace is a function of the
    [(model, scenario)] pair alone.  The memo keys on
    model digest x scenario digest — each the MD5 of the marshal
    image, closures included.  The code that builds a model fixes the
    sharing in that image, so two fresh builds of one model share
    entries.  {!analyze} digests its model once per call;
    {!run_memo} digests the model and the scenario on every call, and
    keeps nothing else per model.  Compute-once:
    concurrent lookups of one key block rather than recompute, which
    keeps the counters deterministic under any scheduling (after a
    {!memo_reset}, a phase's [misses] = the distinct keys it
    computed). *)

val run_memo : Model.t -> env:Env.t -> Trace.t
(** Memoized [Model.run].  When an ambient {!Store.Handle} is
    installed, an in-memory miss consults the persistent store (hex
    spelling of the same key) before computing, and computed traces
    are written back — so a warm store makes reruns recompute nothing
    even across processes.  Store corruption or write failure degrades
    silently to compute; a sim-active fault plan bypasses the store
    entirely (its results must not poison honest runs). *)

type memo_stats = { lookups : int; hits : int; misses : int }

val memo_stats : unit -> memo_stats
(** The process-wide [pfsm.memo.lookups], [pfsm.memo.hits] and
    [pfsm.memo.misses] counters of {!Obs.Metrics}, read as a record.
    They only grow (until [Obs.Metrics.reset]); a harness reporting
    one phase diffs a read taken before it against one taken after. *)

val memo_reset : unit -> unit
(** Drop every memo entry, so the next lookup of any key misses.  Run
    this at the start of a harness whose output includes a phase's
    counters, so consecutive runs report identical numbers.  The
    counters themselves are not touched. *)

val exploited : report -> (Env.t * Trace.t) list

val vulnerable_operations : report -> string list
(** Operations containing at least one pFSM with a hidden hit,
    ascending and unique. *)

val vulnerable_pfsms : report -> pfsm_finding list

val taxonomy_matrix : Model.t -> (Taxonomy.kind * (string * Primitive.t) list) list
(** Table 2's rows: every pFSM of the model bucketed by its generic
    type (empty buckets included). *)

val security_checks : report -> (string * Primitive.t) list
(** Where to add checks: the vulnerable pFSMs, each paired with the
    predicate that must be enforced ([pfsm.spec]). *)
