(** Typed linter findings with interpreter-validated witnesses.

    A finding is born from an abstract fact (the checker's
    over-approximation says the bad state is reachable) and then put
    through the validation bridge: concrete candidate inputs are
    replayed in {!Minic.Interp}.  A reproducing run upgrades the
    finding to [Confirmed] and is carried as the witness; otherwise
    the finding stays [Unconfirmed] — reported, never silently kept,
    mirroring the fault layer's no-silent-truncation discipline. *)

type direction = Low | High

type kind =
  | Array_store_oob of { array : string; direction : direction }
      (** index can leave [\[0, count)] — [Low] is the Sendmail
          missing-lower-bound case *)
  | Atoi_wrap_index of { array : string }
      (** a 32-bit-wrapping [atoi] result reaches an index unchecked *)
  | Strcpy_unbounded of { buffer : string }
      (** no length check dominates the copy (GHTTPD [Log]) *)
  | Strcpy_off_by_one of { buffer : string }
      (** the check admits exactly the terminator overflow *)
  | Strcpy_overflow of { buffer : string }
      (** bounded but insufficient check *)
  | Strncpy_overflow of { buffer : string }
  | Recv_overflow of { buffer : string }
      (** [recv] can run past the buffer (NULL HTTPD [ReadPOSTData]) *)

type witness = {
  args : Minic.Interp.value list;
  socket : string;
  arrays : (string * int) list;
  outcome : Minic.Interp.outcome;   (** the reproduced violation *)
}

type status = Confirmed of witness | Unconfirmed

type t = {
  func : string;
  kind : kind;
  path : Cfg.path;
  site : string;
  detail : string;
  status : status;
  pfsm : string option;
      (** the {!Pfsm.Verify} corroboration verdict, rendered — the
          second leg of the validation bridge *)
}

val target : kind -> string
(** The array or buffer the finding is about. *)

val kind_name : kind -> string

val is_confirmed : t -> bool

val outcome_matches : kind -> Minic.Interp.outcome -> bool
(** Does a replayed outcome reproduce this finding? *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
