(** Data-driven witness search on a single pFSM.

    A {e hidden-path witness} is an object (with its environment)
    that the specification rejects but the implementation accepts —
    concrete evidence that the IMPL_ACPT transition of Figure 2
    exists.  Finding one is finding the vulnerability; this is the
    "data-driven" half of the paper's method, mechanised. *)

type candidate = { env : Env.t; obj : Value.t }

val candidate : ?env:Env.t -> Value.t -> candidate

val hidden_witnesses : Primitive.t -> candidates:candidate list -> candidate list
(** Candidates on which the pFSM takes IMPL_ACPT.  Candidates on
    which either predicate is ill-typed are skipped. *)

val correctly_implemented : Primitive.t -> candidates:candidate list -> bool
(** No hidden-path witness in the searched domain. *)

val overstrict_witnesses : Primitive.t -> candidates:candidate list -> candidate list
(** Objects the spec accepts but the implementation rejects — a
    functionality (not security) defect, reported separately. *)
