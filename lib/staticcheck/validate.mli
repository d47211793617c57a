(** The validation bridge: no raw finding is reported as [Confirmed]
    without a concrete witness {!Minic.Interp} reproduces.

    Two independent legs:

    - {!replay}: concretize the abstract witness ({!Concretize}) and
      run the candidates through the interpreter; the first input
      whose outcome matches the claimed violation becomes the
      finding's witness.  No match — the finding stays [Unconfirmed],
      reported as such, never silently kept.
    - corroboration: rebuild the site as a pFSM — implementation
      predicate extracted with {!Minic.Extract.impl_predicate_at},
      specification derived from the abstract fact (index within
      count, length within capacity) — and let {!Pfsm.Verify}
      exhaustively scan a boundary domain.  [Refuted] means the
      paper's machinery found a spec-violating input the
      implementation accepts, agreeing with the linter. *)

type corroboration =
  | Pfsm_refuted of { witness : Pfsm.Value.t; candidates : int }
      (** pFSM verification agrees: impl admits a spec violation *)
  | Pfsm_verified of { candidates : int }
      (** impl implied spec on the whole domain — tension with the
          finding, worth a human look *)
  | Pfsm_inapplicable of string
      (** no extractable predicate / spec for this site *)

val replay :
  config:Absint.config -> Minic.Ast.func -> Absint.raw -> Finding.status

val finding :
  config:Absint.config -> cfg:Cfg.t -> Minic.Ast.func -> Absint.raw ->
  Finding.t
(** Both legs plus rendering: the finished finding. *)
