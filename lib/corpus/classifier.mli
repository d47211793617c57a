(** Nearest-centroid classification over report feature vectors,
    evaluated against the known Figure-1 categories.

    Training folds feature vectors into one mean per category (in a
    fixed sequential order, so the float sums are identical at any
    [-j] and chunk size); prediction is the nearest centroid under
    squared Euclidean distance, ties broken by {!Vulndb.Category.all}
    order.  The confusion matrix accumulates plain integer counts, so
    merging per-chunk matrices in index order is exact and
    deterministic. *)

type model
(** Trained centroids, one per Figure-1 category. *)

val ncat : int
(** 12 — the Figure-1 categories, in {!Vulndb.Category.all} order. *)

val train : (Vulndb.Category.t * float array) Seq.t -> model
(** Fold labelled vectors into per-category means.  A category with
    no training vectors keeps an all-zero centroid. *)

val predict : model -> float array -> int
(** Index (in {!Vulndb.Category.all} order) of the nearest centroid. *)

val centroids : model -> float array array
(** The centroids, in {!Vulndb.Category.all} order; the caller must
    not mutate them. *)

val model_digest : model -> string
(** Hex digest of the centroid floats — a cache-key component. *)

type confusion = {
  n : int;                (** vectors classified *)
  counts : int array;     (** row-major [ncat * ncat]: true * ncat + predicted *)
}

val confusion_empty : confusion

val confusion_merge : confusion -> confusion -> confusion

val accuracy : confusion -> float
(** Trace over total; 0 on an empty matrix. *)

val majority_share : confusion -> float
(** Share of the most frequent true category — the baseline any
    useful classifier must beat. *)

val category_rows : confusion -> (Vulndb.Category.t * int * int) list
(** Per category: (category, true count, correctly predicted). *)
