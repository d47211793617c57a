(** A parser for the predicate language, inverse to {!Predicate.pp}.

    Lets users state specification and implementation predicates on
    the command line (the [dfsm check] command) and lets tests assert
    the pretty-printer/parser round trip.  Grammar (precedence low to
    high): [||], [&&], [!], comparisons, atoms.

    {v
      pred  ::= pred '||' pred | pred '&&' pred | '!' pred
              | '(' pred ')' | 'true' | 'false'
              | term CMP term | term '==' term      (on strings too)
              | 'contains' '(' term ',' STRING ')'
              | 'fits_int32' '(' term ')'
              | 'format_free' '(' term ')'
              | 'env' '[' IDENT ']'                 (boolean flag)
      term  ::= 'self' | 'env' '[' IDENT ']' | INT | STRING
              | 'length' '(' term ')'
              | 'decode' '^' INT '(' term ')'
      CMP   ::= '<=' | '<' | '==' | '!=' | '>=' | '>'
    v}

    An [INT] is decimal, optionally negative, and must lie in
    [\[min_int, max_int\]]; a ['0x'] literal is an address of at most
    63 bits.  A wider literal is an error at its position, never a
    wrapped value. *)

type error = { position : int; message : string }

val predicate : string -> (Predicate.t, error) result

val predicate_exn : string -> Predicate.t
(** Raises [Invalid_argument] with a located message. *)

val term : string -> (Predicate.term, error) result

val roundtrips : Predicate.t -> bool
(** [parse (to_string p)] succeeds and the result renders back to the
    same string — the property the test suite checks. *)
