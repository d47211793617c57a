(** A discovered vulnerability, packaged the way the authors reported
    #6255 to Bugtraq. *)

type severity = Low | Medium | High | Critical

type t = {
  title : string;
  app : string;
  severity : severity;
  summary : string;           (** what is wrong, one paragraph *)
  witness : string;           (** the concrete input that proves it *)
  observed : string;          (** what the witness made the system do *)
  violated_predicate : string;(** the spec predicate the impl fails to enforce *)
  suggested_check : string;   (** where/what to fix *)
}

val pp : Format.formatter -> t -> unit

val to_report : t -> string
(** Multi-line advisory text. *)
