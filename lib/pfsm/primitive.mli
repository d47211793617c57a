(** The primitive FSM of Figure 2: three states (SPEC check, accept,
    reject) and four transitions.

    {v
                    SPEC_ACPT
       SPEC check ------------> Accept
           |                      ^
           | SPEC_REJ             : IMPL_ACPT   (hidden path —
           v                      :              the vulnerability)
       (should reject) ...........:
           |
           | IMPL_REJ  (correct behaviour)
           v
         Reject
    v}

    A pFSM carries two predicates over the same object: [spec], the
    accept-condition the specification demands, and [impl], the
    accept-condition the implementation actually enforces.  The
    IMPL_ACPT transition is {e derived}: it is taken exactly when the
    implementation accepts an object the specification rejects. *)

type transition = Spec_acpt | Spec_rej | Impl_rej | Impl_acpt

type state = Spec_check_state | Accept_state | Reject_state

type verdict = {
  final : state;                (** [Accept_state] or [Reject_state] *)
  path : transition list;
  hidden : bool;                (** the run took IMPL_ACPT *)
}

type t = {
  name : string;                (** e.g. "pFSM2" *)
  kind : Taxonomy.kind;
  activity : string;            (** the elementary activity, in prose *)
  spec : Predicate.t;
  impl : Predicate.t;
}

val make :
  name:string ->
  kind:Taxonomy.kind ->
  activity:string ->
  spec:Predicate.t ->
  impl:Predicate.t ->
  t

val run : t -> env:Env.t -> self:Value.t -> verdict
(** Execute the pFSM on one object.  Per Figure 2: specification
    acceptance goes straight to accept; specification rejection goes
    to reject via IMPL_REJ when the implementation also rejects, and
    to accept via the hidden IMPL_ACPT when it does not. *)

val missing_check : t -> bool
(** Static view: the implementation performs no check at all (the
    figures' "?" on a missing IMPL_REJ edge). *)

val secured : t -> t
(** The corrected pFSM: implementation enforces exactly the
    specification predicate, eliminating the hidden path. *)

val state_to_string : state -> string

val pp_verdict : Format.formatter -> verdict -> unit
