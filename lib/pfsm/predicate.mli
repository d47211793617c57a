(** The predicate language of elementary activities.

    Observation 3 of the paper: for each elementary activity, the
    vulnerability data and code inspection yield a predicate whose
    violation is the vulnerability.  Predicates here are a small
    first-order language over the object under check ({!term} [Self])
    and environment facts, rich enough to express every predicate in
    the paper's Figures 3-8 and Table 2, and simple enough to
    evaluate, compare (spec vs implementation) and render as the
    Condition labels of the figures. *)

type term =
  | Self                          (** the object the pFSM checks *)
  | Env_val of string             (** an environment fact *)
  | Lit of Value.t
  | Length of term                (** string length *)
  | Decode of int * term          (** URL percent-decoding, [n] passes *)

type cmp = Le | Lt | Eq | Ne | Ge | Gt

type t =
  | True                          (** accept everything (= no check) *)
  | False
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * term * term      (** numeric comparison *)
  | Str_eq of term * term
  | Contains of term * string     (** substring test *)
  | Contains_any of term * string list
  | Fits_int32 of term            (** value representable as signed 32-bit;
                                      on strings, of the integer they denote *)
  | Is_format_free of term        (** no printf conversion directives *)
  | Env_flag of string            (** boolean environment fact, absent = false *)

exception Type_error of string

val eval_term : env:Env.t -> self:Value.t -> term -> Value.t

val holds : env:Env.t -> self:Value.t -> t -> bool
(** Raises {!Type_error} when the predicate is ill-typed for the
    object (e.g. [Length] of an integer). *)

val holds_safely : env:Env.t -> self:Value.t -> t -> bool option
(** [None] when evaluation raised {!Type_error} or referenced an
    absent environment key. *)

val no_check : t -> bool
(** Whether the predicate accepts unconditionally — the figures'
    missing IMPL_REJ transition, marked "?". *)

val conj : t list -> t

val disj : t list -> t

val between : term -> low:int -> high:int -> t
(** [low <= term && term <= high] — the paper's canonical
    [0 <= x <= 100] array-index predicate. *)

(** {2 Hashconsing} *)

val intern : t -> t
(** Canonicalize through the hashcons tables: the result is
    structurally equal to the input, and structurally equal interned
    predicates are physically equal.  Maximal sharing makes the
    marshal image of an interned model depend on structure alone —
    the property the analysis-memo digest key relies on.  Thread-safe;
    called once at construction time ({!Primitive.make}), never on the
    evaluation hot path.  New canonical nodes count in
    [pfsm.hashcons.distinct] and lookups that find one in
    [pfsm.hashcons.hits] ({!Obs.Metrics}). *)

val equal : t -> t -> bool
(** Structural equality with a physical fast path (free after
    {!intern}). *)

val id : t -> int
(** The dense intern id of a predicate: canonical nodes are numbered
    0, 1, 2, ... in canonization order, and the numbering is stable
    for the life of the process (nodes are never evicted).  [id]
    interns its argument, so it is total; on an already-interned
    predicate it costs one table lookup.  Ids are the bit positions
    {!Predset} packs predicate sets into — they depend on construction
    order and must never cross a process boundary (digests, not ids,
    key the persistent tiers). *)

val of_id : int -> t option
(** The canonical predicate carrying an id, [None] if no predicate has
    been assigned it yet. *)

val max_id : unit -> int
(** One past the largest id assigned so far (= distinct canonical
    predicates interned). *)

val pp_term : Format.formatter -> term -> unit

val pp : Format.formatter -> t -> unit
(** Renders like the paper's condition labels:
    ["0 <= x && x <= 100"], ["!contains(decode^2(self), \"../\")"]. *)

val to_string : t -> string
