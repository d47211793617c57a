(** Model-level hidden-path search.

    Drive generated scenarios through a model and harvest every
    (operation, pFSM) site whose hidden IMPL_ACPT transition fires —
    "constructing the FSM allowed us to uncover this new
    vulnerability" (Section 5.1), mechanised. *)

type hit = {
  operation : string;
  pfsm : Pfsm.Primitive.t;
  scenario : Pfsm.Env.t;
}

type exploration = {
  hits : hit list;  (** one hit per (site, first witnessing scenario) *)
  coverage : Fault.Budget.coverage;
      (** [Partial] when the budget cut the scenario list short *)
}

val hidden_paths :
  ?budget:Fault.Budget.t -> Pfsm.Model.t -> scenarios:Pfsm.Env.t list -> exploration
(** Analyse the scenarios (or the budget-sized prefix of them, in
    order — so growing the budget never loses a previously found
    hit). *)

val discover : Pfsm.Model.t -> scenarios:Pfsm.Env.t list -> Finding.t list
