(** Process-wide metrics registry: counters, gauges, histograms.

    Hot-path updates are unsynchronized writes to domain-local cells
    ([Domain.DLS]); a {!snapshot} folds the per-domain cells together —
    counters and histograms sum, gauges keep the high-water mark.
    Totals are deterministic for a deterministic workload; the
    per-domain split is not (chunks land on whichever worker grabs
    them), which is why traces never embed live metric reads.

    Registration is idempotent: [counter "x"] in two libraries returns
    the same metric.
    @raise Invalid_argument when a name is re-registered with a
    different kind. *)

type counter
type gauge
type histogram

val counter : string -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** The folded total of one counter (0 for other kinds): the typed
    read behind every stats record ([Pfsm.Analysis.memo_stats],
    [Store.Disk.stats]).  It is exact once the parallel work that
    bumped the counter has joined; a phase reports the difference of
    two reads. *)

val gauge : string -> gauge

val observe_gauge : gauge -> int -> unit
(** Record a level; the snapshot reports the maximum ever observed. *)

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one observation into power-of-two buckets (bucket [i] holds
    values with [i] significant bits; bucket 0 holds values [<= 0]). *)

type value =
  | Counter_v of int
  | Gauge_v of int  (** high-water mark *)
  | Histogram_v of {
      count : int;
      sum : int;
      max : int;
      buckets : (int * int) list;  (** (bucket index, count), non-empty only *)
    }

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every cell of every metric (the registry itself persists).
    Harnesses whose output embeds metric totals run this first so
    consecutive invocations report identical numbers. *)

val to_json : snapshot -> Json.t
(** One member per metric, in snapshot order; a histogram is an object
    of [count], [sum], [max] and [buckets] (bucket index to count). *)

val pp : Format.formatter -> snapshot -> unit

(** {2 Test hooks} *)

val per_domain_counts : counter -> int list
(** The raw per-domain cells, unsummed — the snapshot total must equal
    their sum. *)
