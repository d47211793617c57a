(** The streaming corpus sweep: chunked generation on the {!Par}
    pool, per-chunk classification summaries cached in the persistent
    store via {!Store.Handle.cached}, and a deterministic in-order
    merge.

    Store tiers (keys derive from the plan digest, the seed, the chunk
    geometry, the centroid digest and the feature version):

    - ["corpus-summary"] — one record per chunk: its classification
      confusion counts.  On a warm store this tier short-circuits the
      whole chunk (no generation, no feature extraction), which is
      what makes million-report sweeps incremental across processes.
      A miss regenerates the chunk's reports from the plan.  They are
      never written: regenerating a chunk costs about as much as
      decoding its record, before the file is even read, and writing
      the record costs more than either.
    - ["corpus-centroids"] — the trained classifier (always on the
      legacy 5925-report corpus, fixed internal chunking, sequential
      float folds — independent of [--chunk] and [-j]).

    Every record goes through {!Store.Io}, so [chaos --disk] fault
    plans and [dfsm fsck] cover them like any other.  Without an
    installed store every tier degrades to compute.  The merge folds
    integer matrices in chunk-index order, so the result is
    byte-identical at any [-j] and invariant under chunk size.

    Counters: [corpus.chunks], [corpus.reports] (accounted into the
    final matrix), [corpus.generated] (reports generated fresh this
    process), [corpus.summaries] (summaries computed fresh). *)

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

val run :
  ?curated:Vulndb.Report.t list ->
  seed:int ->
  total:int ->
  chunk:int ->
  unit ->
  (t, Vulndb.Synth.error) result
(** Classify a [total]-report corpus in [chunk]-sized pieces fanned
    over the {!Par} pool.  A chunk's reports stream one at a time
    from {!Vulndb.Synth.chunk_iter} into
    {!Classifier.classify_all}; no chunk is ever resident. *)

val ok : t -> bool
(** Conservation (every planned report classified exactly once) and
    the classifier beating the majority-class baseline. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** Deterministic rendering: geometry, accuracy, per-category rows,
    and the full confusion matrix.  No timings, no volatile state. *)
