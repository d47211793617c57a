(** One injected fault, as recorded by the {!Injector} at the seam
    where it fired — the audit trail that makes a perturbed run
    explainable after the fact.

    An event is a typed value carrying the numbers of the decision,
    one constructor per injection site.  Its text is rendered only on
    demand ({!seam}, {!detail}, {!pp}), so a run that injects hundreds
    of thousands of faults pays no formatting unless something reads
    them. *)

type t =
  | Heap_denied of { requested : int; allocation : int }
      (** [allocation] counts the injector's heap requests from 1 *)
  | Connection_reset of { recv : int }
      (** the connection dropped at this recv, counted from 1 *)
  | Recv_clamped of { requested : int; chunk : int }
  | Fs_denied of { path : string }
  | Bit_flipped of { bit : int; byte : int; len : int }
      (** one bit of a [len]-byte bulk write *)
  | Store_torn of { write : int; kept : int; len : int }
      (** store write number [write] kept [kept] of [len] bytes *)
  | Store_flipped of { write : int; bit : int; byte : int }
  | Store_failed of { write : int; errno : string }
  | Store_crashed of { write : int }
  | Step_dropped of { step : int; steps : int; schedule : int }
  | Step_duplicated of { step : int; steps : int; schedule : int }

val seam : t -> string
(** The injection point, e.g. ["osmodel.socket"]. *)

val detail : t -> string
(** What happened there, e.g. ["recv(1024) clamped to 7 bytes"]. *)

val pp : Format.formatter -> t -> unit
(** [\[seam\] detail]. *)
