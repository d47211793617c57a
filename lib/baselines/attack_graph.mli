(** The model-checking school the paper contrasts with (Section 2):
    Sheyner-style attack graphs.

    We build the graph from data — the set of traces an
    {!Pfsm.Analysis.report} observed — rather than from a network
    description: nodes are cascade positions plus three terminals
    (compromised, foiled, benign), edges are the observed pFSM
    transitions, labelled normal or hidden.  Classic attack-graph
    questions then become graph queries:

    {ul
    {- {e reachability}: can the attacker reach the compromised
       state?}
    {- {e attack paths}: every distinct route there;}
    {- {e minimal cut}: the smallest set of hidden edges whose removal
       disconnects the attacker — which the paper's lemma predicts has
       size 1 for serial exploit chains.}} *)

type node =
  | Start
  | Site of { operation : string; pfsm : string }
  | Compromised
  | Foiled
  | Benign

type edge_kind = Normal_step | Hidden_step

type edge = { src : node; dst : node; kind : edge_kind }

type t

val of_report : Pfsm.Analysis.report -> t
(** One edge per observed step transition, deduplicated. *)

val nodes : t -> node list

val edges : t -> edge list

val exploit_reachable : t -> bool
(** A path Start → Compromised exists. *)

val attack_paths : t -> max_paths:int -> node list list
(** All simple Start→Compromised paths (bounded). *)

val hidden_edges : t -> edge list

val min_hidden_cut : t -> edge list option
(** A smallest set of hidden edges disconnecting Start from
    Compromised; [None] when no exploit is reachable (nothing to
    cut), [Some []] never. Exhaustive over subsets of ascending size
    (the graphs are small). *)

val agrees_with_lemma : t -> bool
(** Exploit reachable implies a hidden cut of size 1 exists — the
    attack-graph rendering of the paper's lemma for serial chains. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
