(** The streaming corpus sweep: chunked generation on the {!Par}
    pool, per-chunk classification summaries cached in the persistent
    store via {!Store.Handle.cached}, and a deterministic in-order
    merge.

    Store tiers (keys derive from the plan digest, the seed, the chunk
    geometry, the centroid digest and the feature version):

    - ["corpus-summary"] — one record per chunk: its classification
      confusion counts.  On a warm store this tier short-circuits the
      whole chunk (no draws, no table reads), which is what makes
      million-report sweeps incremental across processes.  A miss
      redraws the chunk from the plan.  Reports are never written:
      redrawing a chunk costs far less than decoding a record of its
      reports.
    - ["corpus-centroids"] — the trained classifier (always on the
      legacy 5925-report corpus, fixed internal chunking, sequential
      float folds — independent of [--chunk] and [-j]).

    Every record goes through {!Store.Io}, so [chaos --disk] fault
    plans and [dfsm fsck] cover them like any other.  Without an
    installed store every tier degrades to compute.  The merge folds
    integer matrices in chunk-index order, so the result is
    byte-identical at any [-j] and invariant under chunk size.

    Counters: [corpus.chunks], [corpus.reports] (accounted into the
    final matrix), [corpus.generated] (reports drawn and scored fresh
    this process), [corpus.summaries] (summaries computed fresh),
    [corpus.tables] (draw tables built: one per {!chunk_classifier}
    call, so 1 for a run with a summary miss and 0 for a warm one). *)

type t = {
  total : int;    (** requested corpus size *)
  planned : int;  (** {!Vulndb.Synth.plan_size}: curated + synthetic *)
  chunk : int;
  chunks : int;
  confusion : Classifier.confusion;
  accuracy : float;
  baseline : float;  (** majority-category share *)
}

val centroids : seed:int -> (Classifier.model, Vulndb.Synth.error) result
(** The trained (store-cached) classifier. *)

val chunk_classifier :
  Classifier.model ->
  Vulndb.Synth.plan ->
  seed:int ->
  chunk:int ->
  index:int ->
  Classifier.confusion
(** [chunk_classifier model p] builds the plan's draw table: for every
    (segment, range, package, year) a synthetic report of [p] can
    draw, the category [Classifier.predict model] gives the vector
    {!Features} reads from such a report.  The function it returns
    scores chunk [index], bit for bit as [predict model
    (Features.of_report r)] over {!Vulndb.Synth.chunk_reports} would:
    a synthetic position costs the three draws the table keys on
    ({!Vulndb.Synth.chunk_draws}) and one table read, and allocates
    nothing; a curated
    report is scored by [predict].  The table is read-only, so the
    function is safe to run on pool domains. *)

val run :
  ?curated:Vulndb.Report.t list ->
  seed:int ->
  total:int ->
  chunk:int ->
  unit ->
  (t, Vulndb.Synth.error) result
(** Classify a [total]-report corpus in [chunk]-sized pieces fanned
    over the {!Par} pool.  The first chunk whose summary misses the
    store builds the draw table, once, and every missed chunk is then
    scored by the function {!chunk_classifier} returned; a warm run
    builds no table, and no chunk's reports are ever built. *)

val ok : t -> bool
(** Conservation (every planned report classified exactly once) and
    the classifier beating the majority-class baseline. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** Deterministic rendering: geometry, accuracy, per-category rows,
    and the full confusion matrix.  No timings, no volatile state. *)
