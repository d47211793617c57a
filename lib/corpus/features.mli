(** The per-report feature vector behind the corpus classifier
    (PAPERS.md: Modena's vulnerability-classification metric).

    Each report maps to a fixed-length numeric vector built from two
    sources: the pFSM model of its flaw mechanism — the paper's own
    structural quantities via {!Pfsm.Metrics.of_model} (operation
    cascade length, distinct objects, elementary activities,
    propagation gates, the three taxonomy kinds, missing checks) —
    and the report's Bugtraq metadata (exploitable range, title
    shape, year).

    A vector is a {e row} followed by a {e tail}.  The row, slots
    [\[0, row_dim)], depends only on the report's flaw and range, so
    the {!rows} possible rows form a table built once at module
    initialisation; the tail, slots [\[row_dim, dim)], is read from
    the report's title and date.  {!of_fields} reads the same four
    fields without a report, which lets the classify pipeline score
    a synthetic report's vector before any report is built.
    Extraction is allocation-light and safe to run on pool
    domains. *)

val dim : int
(** Length of every feature vector. *)

val names : string array
(** Feature names, index-aligned with the vectors ([dim] entries). *)

val row_dim : int
(** Slots [\[0, row_dim)] of a vector are its row. *)

val rows : int
(** Number of distinct rows. *)

val row_of : Vulndb.Report.t -> int
(** The report's row, in [\[0, rows)]. *)

val row : int -> float array
(** A fresh copy of row [i]: [row_dim] slots, equal to the first
    [row_dim] slots of {!of_report} for every report [r] with
    [row_of r = i]. *)

val set_tail : Vulndb.Report.t -> float array -> unit
(** Write the report's tail into slots [\[row_dim, dim)] of a
    [dim]-slot vector, leaving the other slots alone: the title's
    length, its word count (maximal runs of non-space characters) and
    the year, the date's first four characters as a decimal number
    less 1998, or 0 when they are not four decimal digits. *)

val of_report : Vulndb.Report.t -> float array
(** The feature vector, [row (row_of r)] then the tail; a pure
    function of the report's flaw, range, title and date. *)

val of_fields :
  flaw:Vulndb.Report.flaw ->
  range:Vulndb.Report.range ->
  title:string ->
  date:string ->
  float array
(** The vector of every report with these four fields: [of_report r]
    is [of_fields ~flaw:r.flaw ~range:r.range ~title:r.title
    ~date:r.date]. *)

val version : string
(** Cache-key component: bump when the vector layout changes. *)
