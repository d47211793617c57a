(** Executable specification of {!Staticcheck.Absint}.

    The original abstract interpreter, verbatim: string-keyed
    [Map.Make (String)] environments and a per-store [List.assoc_opt]
    scan of the array-size config.  {!Absint.analyze} replaced those
    with per-function integer slots, dense option arrays and a hoisted
    array-count table; this module is what it must agree with.  The
    differential property test runs both over generated functions and
    the bench harness times them side by side — do not "optimize"
    this copy. *)

val analyze :
  ?config:Staticcheck.Absint.config -> Minic.Ast.func -> Staticcheck.Absint.result
(** Same result, path for path and count for count, as
    {!Staticcheck.Absint.analyze}. *)
