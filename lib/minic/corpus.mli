(** The showcase sources: the paper's vulnerable functions written in
    mini-C, in vulnerable and fixed variants, with the specification
    predicates an analyst would state for them.

    These close the loop of the paper's conclusion: the
    implementation predicate is {e extracted} from this code
    ({!Extract}), checked against the spec ({!Pfsm.Verify}), and the
    prediction validated against actual execution ({!Interp}). *)

(** {2 Sendmail's tTflag (Figure 3)} *)

val tTflag_arrays : (string * int) list

val tTflag_vulnerable : Ast.func
(** Checks only [x > 100] — the real bug. *)

val tTflag_fixed : Ast.func
(** Checks [x < 0 || x > 100]. *)

val tTflag_spec : Pfsm.Predicate.t
(** [0 <= x <= 100], over the converted integer. *)

val tTflag_object : string
(** ["x"]. *)

val run_tTflag : Ast.func -> str_x:string -> str_i:string -> Interp.outcome

(** {2 GHTTPD's Log (Bugtraq #5960)} *)

val log_vulnerable : Ast.func
(** Unbounded [strcpy] into [char buf\[200\]]. *)

val log_fixed : Ast.func
(** Rejects requests longer than 199 bytes (the terminator needs its
    byte too — the off-by-one the original "fix" proposals missed). *)

val log_off_by_one : Ast.func
(** The tempting wrong fix: rejects only [> 200], so a 200-byte
    request still clobbers one byte past the buffer. *)

val log_spec : Pfsm.Predicate.t
(** [length(request) <= 199]. *)

val log_object : string
(** ["request"]. *)

val run_log : Ast.func -> request:string -> Interp.outcome

(** {2 NULL HTTPD's ReadPOSTData (Figure 4b, Bugtraq #6255)} *)

val read_post_data_buggy : Ast.func
(** The shipped loop: [while ((rc == 1024) || (x < contentLen))].
    Note that static guard extraction reports the recv site as
    {e unguarded} in both variants — first-iteration path conditions
    cannot see the loop operator.  Distinguishing [||] from [&&]
    needs the dynamic differential ({!Interp} + the spec), exactly
    the combination that found #6255. *)

val read_post_data_fixed : Ast.func
(** The [&&] correction. *)

val run_read_post_data :
  Ast.func -> content_len:int -> body:string -> Interp.outcome

(** {2 The whole corpus} *)

val all : (string * Ast.func) list
