(** Deterministic synthetic population of the database, at any scale.

    The paper's Figure 1 depends only on the per-category counts of
    the 2002-11-30 Bugtraq snapshot, which {!Category.paper_count}
    fixes.  [generate] embeds the curated reports and fills every
    category up to its count with clearly-marked synthetic reports,
    assigning flaw mechanisms so the studied family (stack/heap
    overflow, integer overflow, format string, file race) lands at
    the paper's 22% of the total.

    Beyond the paper's 5925 reports, a {!plan} scales the Figure-1
    distribution to an arbitrary [total] (largest-remainder
    apportionment of the category shares, flaw quotas scaled
    proportionally) and lays the whole corpus out as a pure function
    of position: report [pos] of a plan draws from its own
    {!Par.Seed.child} PRNG stream, so any chunking of the position
    space — at any job count — yields byte-identical reports.  The
    plan is validated up front: duplicate curated ids and id-space
    overflow are typed {!error}s instead of a [Database.add] crash
    deep inside a worker, and synthetic id assignment skips over any
    curated id that falls inside the synthetic block (the stock data
    has two, 900001 and 900002, which a million-report corpus
    overlaps). *)

type error =
  | Invalid_total of int      (** requested corpus size below 1 *)
  | Invalid_chunk of int      (** chunk size below 1 *)
  | Duplicate_curated_id of int
  | Id_overflow of { base : int; count : int }
      (** the synthetic block starting at [base] cannot fit [count]
          ids below [max_int] *)

val error_to_string : error -> string

type plan
(** A validated corpus layout: curated reports first (ascending id),
    then every synthetic (category, flaw) segment at its precomputed
    position range.  Pure data — generation needs only [plan], [seed]
    and a position. *)

val plan : ?curated:Report.t list -> total:int -> unit -> (plan, error) result
(** Lay out a corpus of [total] reports scaled from the Figure-1
    distribution.  [curated] defaults to {!Seed_data.reports}.  When a
    category holds more curated reports than its scaled share the
    extras are kept (never dropped), so {!plan_size} can exceed
    [total] by at most the curated count. *)

val plan_size : plan -> int
(** Reports in the corpus: curated plus synthetic. *)

val plan_synthetic : plan -> int

val plan_digest : plan -> string
(** Hex digest of the full layout (targets, segments, curated rows,
    skipped ids) — a cache key component; independent of [seed]. *)

val chunk_count : plan -> chunk:int -> int

val id_at : plan -> int -> int
(** The report id at synthetic position [pos]: ids count up from
    {!synthetic_id_base}, skipping curated ids inside the block. *)

val chunk_reports : plan -> seed:int -> chunk:int -> index:int -> Report.t list
(** Positions [[index*chunk, min (plan_size) ((index+1)*chunk))]. *)

type draw = {
  minor : int;          (** software version minor, [0]–[9] *)
  major : int;          (** software version major, [0]–[4] *)
  package : int;        (** software package, in [\[0, packages)] *)
  range : Report.range;
  day : int;            (** [1]–[28] *)
  month : int;          (** [1]–[12] *)
  year : int;           (** in [\[first_year, last_year\]] *)
}
(** One synthetic report's seven PRNG draws: field [k] is the [k]-th
    draw of the report's stream.  The report is built from them:
    {!chunk_reports} builds both, and a caller that needs only some of
    the values reads them through {!chunk_draws} and builds no
    string. *)

val packages : int
(** Size of the software package pool. *)

val first_year : int

val last_year : int

val title : Category.t -> Report.flaw -> draw -> string
(** The title of the synthetic report with this draw in a segment of
    this (category, flaw): ["<package> <major>.<minor> <category
    phrase> <flaw phrase>"].  Both version numbers are single digits,
    so its length and words depend on the package alone. *)

val date : draw -> string
(** The report's date, YYYY-MM-DD. *)

val segments : plan -> (Category.t * Report.flaw) array
(** The plan's synthetic segments, in position order: every synthetic
    report of segment [i] has its category and flaw. *)

val chunk_draws :
  plan ->
  seed:int ->
  chunk:int ->
  index:int ->
  curated:(Report.t -> unit) ->
  synthetic:(segment:int -> package:int -> range:Report.range -> year:int -> unit) ->
  unit
(** [chunk_draws p ~seed ~chunk ~index ~curated ~synthetic] visits the
    positions of {!chunk_reports} in order: [curated r] for a curated
    report, [synthetic ~segment ~package ~range ~year] for a synthetic
    one, with the [package], [range] and [year] of the {!draw} the
    report at that position is built from.  It reads only those three
    draws of the position's stream, and builds no string, report or
    draw record. *)

val generate_stream :
  ?curated:Report.t list ->
  seed:int ->
  total:int ->
  chunk:int ->
  (index:int -> Report.t list -> unit) ->
  (int, error) result
(** Stream the corpus through the sink chunk by chunk, in index
    order, generating waves of chunks on the {!Par} pool; at most one
    wave (a few chunks per job) is resident at a time.  Returns the
    number of reports streamed.  The sink runs on the calling domain. *)

val generate : seed:int -> Database.t
(** The legacy corpus: a 5925-report database; same seed, same
    database, at any [-j]. *)

val legacy_total : int
(** 5925 — {!Category.total_reports}, the corpus size of the paper. *)

val synthetic_id_base : int
(** All generated IDs are at or above this (100000), far from real
    Bugtraq IDs of the era. *)
