(** Parsing mini-C source text.

    Accepts the C-ish concrete syntax {!Ast.pp_func} prints (comments
    are skipped), so vulnerable functions can be fed to the extractor
    as source files — [dfsm extract].  [return -1;] parses as
    {!Ast.Reject} (the reject idiom); any other [return] as
    {!Ast.Return}.  An integer literal wider than [max_int] is an
    error on its line, never a wrapped value; [min_int] is written as
    a unary minus before its magnitude, as {!Ast.pp_func} prints it. *)

type error = { line : int; message : string }

val func : string -> (Ast.func, error) result
(** Parse a single function definition. *)

val program : string -> (Ast.func list, error) result
(** Parse a sequence of function definitions. *)

val roundtrips : Ast.func -> bool
(** [func (func_to_string f)] succeeds and renders back identically
    (reject reasons normalise to the comment text). *)
