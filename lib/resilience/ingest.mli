(** Supervised database ingestion.

    The CSV import path is the pipeline's front door and the most
    exposed to hostile input, so it gets the full treatment: each data
    row is a supervised work item (resource ["csv"]) whose text passes
    through the {!Fault.Hooks.mangle} seam before being re-tokenised
    and typed — under a bit-flip fault plan, corrupted rows are
    quarantined as [Rejected] while the rest of the document still
    loads.  A rejected row is recorded once, as its report item's
    {!Run_report.Quarantined} outcome. *)

type csv_outcome = {
  db : Vulndb.Database.t;  (** the rows that survived, as a database *)
  report : Run_report.t;
}

val csv :
  ?label:string ->
  ?config:Supervisor.config ->
  string ->
  (csv_outcome, Vulndb.Csv.error) result
(** Document-level problems — the text does not tokenise, or the
    header line is wrong — are [Error]: there are no rows to sweep.
    Row-level problems never are: each row either completes into the
    database or is quarantined with its {!Vulndb.Csv.error} rendered
    as the [Rejected] detail.  A report whose (possibly mangled) ID
    collides with an already-ingested one is rejected too ([add]
    would otherwise throw the whole database away) — detected in a
    sequential post-pass over the supervised results, first
    occurrence wins, so the per-row work closures share no state and
    the rows {!Supervisor.run} speculates on the {!Par} pool reach a
    byte-identical outcome at any [-j]. *)
