(** Textual rendering of models and analyses — the console
    counterpart of the paper's figures and tables. *)

val pp_pfsm : Format.formatter -> Primitive.t -> unit

val pp_model : Format.formatter -> Model.t -> unit
(** The full cascade, one operation per block, with SPEC/IMPL
    predicates and hidden-path markers — a textual Figure 3/4/5/6/7. *)

val pp_report : Format.formatter -> Analysis.report -> unit

val pp_matrix :
  Format.formatter -> (Taxonomy.kind * (string * Primitive.t) list) list -> unit
(** One model's Table-2 row set. *)

val model_to_string : Model.t -> string
