(** Per-pFSM transition coverage.

    The paper's Figure-8 taxonomy made measurable: for every
    (operation, pFSM) pair of a model, how many scenarios drove each
    of the four Figure-2 edges — SPEC_ACPT, SPEC_REJ, IMPL_REJ and the
    hidden IMPL_ACPT.  A pFSM whose SPEC_REJ edge never fired was
    never challenged by the corpus; an IMPL_ACPT count [> 0] is a
    driven hidden path. *)

type cell = {
  operation : string;
  pfsm : string;
  kind : Taxonomy.kind;
  spec_acpt : int;
  spec_rej : int;
  impl_rej : int;
  impl_acpt : int;
}

type t = { scenarios : int; cells : cell list }

val of_report : Analysis.report -> t
(** Walk every trace of the report; cells appear in model order
    (deterministic), including never-exercised pFSMs with all-zero
    counts. *)

val merge : t -> t -> t
(** Sum cells for the same (operation, pfsm); cell order is
    first-seen. *)

val empty : t

val exercised : cell -> int
(** How many of the four edges fired at least once ([0..4]). *)

val edges_exercised : t -> int

val edges_total : t -> int
(** [4 * number of cells]. *)

val pct : t -> float

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
