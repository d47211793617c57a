(** Exhaustive verification of pFSMs over finite domains.

    Witness search ({!Witness}) samples; this module {e enumerates} a
    described finite domain and decides whether the implementation
    predicate implies the specification predicate on all of it —
    yielding a certificate rather than an absence of counterexamples.
    For the integer and short-string domains the studied predicates
    range over, exhaustion is cheap and turns "no witness found" into
    "no hidden path exists on this domain". *)

type domain =
  | Int_range of { low : int; high : int }
      (** every integer in [\[low, high\]] *)
  | Int_edges
      (** int32 edge values and their neighbourhoods *)
  | Strings of string list
  | Alphabet_strings of { alphabet : string; max_len : int }
      (** every string over [alphabet] up to [max_len] — exponential,
          bounded to 100k candidates *)

type result =
  | Verified of { candidates : int }
      (** impl ⇒ spec on the whole domain *)
  | Refuted of { witness : Value.t; candidates_tried : int }
      (** [candidates_tried] counts candidates actually examined,
          including the witness *)
  | Budget_exhausted of { tried : int; total : int }
      (** the {!Fault.Budget} ran dry before the scan decided — an
          explicit partial answer, never a silent truncation *)
  | Domain_too_large of { bound : int }

val enumerate : domain -> Value.t list
(** The domain's elements (raises nothing; [Alphabet_strings] beyond
    the bound yields the prefix-closed subset it reached — use
    {!verify} to get the honest [Domain_too_large]). *)

val size : domain -> int
(** Number of candidates the domain denotes. *)

val verify : ?env:Env.t -> ?budget:Fault.Budget.t -> Primitive.t -> domain -> result
(** Decide [impl ⇒ spec] on the domain, consuming one unit of
    [budget] fuel per candidate examined. *)

val verify_secured : ?env:Env.t -> ?budget:Fault.Budget.t -> Primitive.t -> domain -> bool
(** Sanity: a {!Primitive.secured} pFSM always verifies. *)

val pp_result : Format.formatter -> result -> unit
