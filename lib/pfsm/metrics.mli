(** Structural metrics of models — the quantities behind the paper's
    three Observations (Section 3.2).

    Observation 1: exploits pass through multiple elementary
    activities; Observation 2: they involve multiple operations on
    several objects; Observation 3: each activity carries a derived
    predicate.  These are countable properties of a model, tabulated
    here for all studied vulnerabilities. *)

type t = {
  model_name : string;
  operations : int;           (** Observation 2: operations in the cascade *)
  objects : string list;      (** Observation 2: distinct objects manipulated *)
  elementary_activities : int;(** Observation 1: pFSMs in total *)
  predicates : int;           (** Observation 3: one per pFSM, by construction *)
  distinct_predicates : int;  (** structurally distinct spec/impl predicates *)
  missing_checks : int;       (** pFSMs whose implementation checks nothing *)
  kinds : (Taxonomy.kind * int) list;
}

val of_model : Model.t -> t

val observation1_holds : t -> bool
(** At least two elementary activities. *)

val observation2_holds : t -> bool
(** More than one operation, or several objects. *)

val observation3_holds : t -> bool
(** Every elementary activity carries a (non-trivial) specification
    predicate. *)

val pp : Format.formatter -> t -> unit

val pp_table : Format.formatter -> t list -> unit
