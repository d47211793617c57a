(** Extracting implementation predicates from source code.

    The paper derives each pFSM's implementation predicate by reading
    the application's code; this module mechanises that reading for
    mini-C: the {e path condition} guarding the first dangerous
    operation (an array store or a string copy) {e is} the
    implementation's accept-predicate for the object involved.

    With the specification supplied by the analyst, the extracted
    predicate completes a pFSM automatically — and {!Pfsm.Verify} can
    then certify or refute it.  This is the conclusion's "automatic
    tool for the vulnerability analysis", for the subset of C the
    corpus covers. *)

type danger =
  | Store_to of string   (** [Array_store] into this global array *)
  | Copy_to of string    (** [Strcpy]/[Strncpy] into this stack buffer *)

type site = {
  danger : danger;
  guard : Ast.expr;
      (** conjunction of branch conditions dominating the operation *)
  operand : Ast.expr;
      (** the expression under check: the store's index, or the
          copy's source (the recv's offset) — what relates a site to
          an object variable *)
}

val dangerous_sites : Ast.func -> site list
(** Every dangerous operation with its path condition, in program
    order.  Branches that unconditionally exit ([Reject]/[Return])
    contribute their negated condition to the code after them — the
    C guard idiom [if (bad) return -1;].  A conjunct only survives
    while the variables it mentions are unwritten: an assignment
    between check and use drops it (check-then-clobber), and guards
    entering a loop body are pre-filtered by the variables the body
    assigns, since from the second iteration on they are stale. *)

val impl_predicate_at : object_var:string -> site -> Pfsm.Predicate.t option
(** The site's path condition, translated and simplified. *)

val impl_predicate : Ast.func -> object_var:string -> Pfsm.Predicate.t option
(** The path condition of the {e first} dangerous site, translated
    and simplified — the implementation predicate of the activity. *)

val site_relevant : object_var:string -> site -> bool
(** Whether the site's operand mentions the object variable. *)

val weakest_predicate : Ast.func -> object_var:string -> Pfsm.Predicate.t option
(** The per-function implementation predicate across {e all} sites
    relevant to [object_var]: the disjunction of their path
    conditions — the weakest condition under which some relevant
    dangerous operation runs.  [None] when no relevant site exists or
    any relevant guard leaves the translatable fragment. *)

val pfsm_of :
  name:string ->
  kind:Pfsm.Taxonomy.kind ->
  activity:string ->
  spec:Pfsm.Predicate.t ->
  object_var:string ->
  Ast.func ->
  Pfsm.Primitive.t
(** Assemble a pFSM whose impl is extracted from the code.  Raises
    [Invalid_argument] when the function has no dangerous site or the
    guard cannot be translated. *)
