(** The linter front end: analyze a function, validate every raw
    finding, and render reports; plus the corpus sweep with its
    ground-truth expectations.

    The sweep is the linter's acceptance harness: every vulnerable
    corpus variant must be flagged with at least one {e confirmed}
    finding of the expected kind, and every fixed variant must come
    back with {e zero} findings — the symbolic bounds in {!Absval}
    exist precisely so the ReadPOSTData [&&] fix is provably clean
    while the [||] loop is caught. *)

type report = {
  func : Minic.Ast.func;
  findings : Finding.t list;
  nodes : int;               (** CFG size *)
  edges : int;
  back_edges : int;
  loop_iterations : int;
  widenings : int;
}

val lint : ?config:Absint.config -> Minic.Ast.func -> report

val lint_cached : config:Absint.config -> string -> Minic.Ast.func -> report
(** [lint] routed through the ambient persistent store (when one is
    installed) under the digest of [label x function x config]; a
    verified record short-circuits the analysis, anything unsound
    degrades to a fresh [lint] whose report is written back. *)

val lint_program : ?config:Absint.config -> Minic.Ast.func list -> report list

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Json.t

(** Ground truth for one corpus entry. *)
type expectation =
  | Flagged of string list
      (** kind names ({!Finding.kind_name}) that must all appear,
          every finding confirmed *)
  | Clean

type sweep_row = {
  label : string;
  expected : expectation;
  report : report;
  ok : bool;
}

val corpus_config : Absint.config
(** {!Absint.default_config} plus the tTflag array registrations. *)

val corpus_sweep : unit -> sweep_row list
(** Lint every {!Minic.Corpus} variant against its expectation.
    Variants fan out over the {!Par} domain pool with ordered
    reduction — rows are byte-identical to the sequential sweep for
    any job count.  When an ambient {!Store.Handle} is installed, each
    variant's report is served from the store when a verified record
    exists (keyed on the digest of label x function x config) and
    written back otherwise, so a warm store makes a rerun recompute
    nothing; expectations are always re-evaluated live. *)

val supervised_sweep :
  ?config:Absint.config ->
  ?supervise:Resilience.Supervisor.config ->
  ?checkpoint:Resilience.Checkpoint.t ->
  ?stop_after:int ->
  ?parallel:bool ->
  unit ->
  sweep_row list * Resilience.Run_report.t
(** The corpus sweep as a supervised batch: one work item per variant
    (resource ["lint"]), each drawing its analysis arena from the
    simulated heap so allocation-fault plans hit the sweep itself.
    Returns the rows completed {e this} run — under [?checkpoint],
    variants a previous run finished are reported from the journal
    and not re-linted — plus the typed run report. *)

val sweep_ok : sweep_row list -> bool

val pp_sweep : Format.formatter -> sweep_row list -> unit

val sweep_to_json : sweep_row list -> Json.t
