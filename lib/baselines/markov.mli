(** The quantitative school the paper contrasts with (Section 2):
    Ortalo et al.'s Markov model of intruder behaviour, evaluating
    METF — Mean Effort To (security) Failure.

    A chain is derived from a pFSM model: one state per elementary
    activity in the exploit's path.  At each state the attacker
    spends one unit of effort per attempt and advances with the
    activity's success probability (1 for a missing check, the given
    retry probability for a probabilistic obstacle, 0 for a correct
    check).  METF is computed by solving the first-step linear system
    with Gaussian elimination — not just the closed form — so
    arbitrary chains (with skips and retries) are supported.

    The contrast the paper draws is visible in the numbers: the
    Markov abstraction needs transition probabilities as {e inputs}
    (which nobody has for real vulnerabilities), while the pFSM model
    needs only the predicates. *)

type t
(** A finite Markov chain with per-transition effort. *)

val create : states:int -> start:int -> target:int -> t
(** States are [0 .. states-1]; [target] is the security-failure
    (absorbing) state. *)

val add_transition : t -> src:int -> dst:int -> prob:float -> effort:float -> unit

val normalize_with_self_loops : t -> unit
(** Give every non-target state a self-loop absorbing the residual
    probability mass (the attacker retries), costing one effort
    unit. *)

val metf : t -> float option
(** Mean effort from [start] to absorption at [target]; [None] when
    the target is unreachable (infinite effort — the exploit is
    foiled). *)

val solve_linear : float array array -> float array -> float array option
(** Gaussian elimination with partial pivoting; [None] on a singular
    system.  Exposed for tests. *)

(** {2 Derivation from pFSM models} *)

val metf_of_model : retry:float -> Pfsm.Model.t -> scenario:Pfsm.Env.t -> float option
(** Run the model on [scenario], build the chain over the run's steps
    (a hidden step is a geometric retry with per-attempt success
    probability [retry]) and compute METF.  On the paper's
    models: finite for every vulnerable configuration, [None] as soon
    as any single operation is secured — the lemma seen through
    Ortalo's metric. *)
