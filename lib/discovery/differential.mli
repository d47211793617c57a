(** Simulation-level differential testing: generate inputs, run the
    {e real} (simulated) program, and flag every input that violates
    a specification predicate yet is not rejected.

    This is how the reproduction re-discovers Bugtraq #6255 without
    being told about it: fuzzing NULL HTTPD 0.5.1 (the version with
    the negative-Content-Length fix) with {e well-formed} requests
    whose bodies exceed the buffer shows the recv loop accepting them
    all — the []]-for-[&&] logic error. *)

type case = {
  input_desc : string;
  spec_holds : bool;          (** does the input satisfy the spec? *)
  outcome : Apps.Outcome.t;
  divergent : bool;
      (** spec rejects the input but the program did not block it *)
}

val nullhttpd_sweep : ?seed:int -> config:Apps.Nullhttpd.config -> unit -> case list
(** Sweep (contentLen, body-length) combinations through
    [handle_post]. *)

val rediscover_6255 : ?seed:int -> unit -> Finding.t option
(** Run the sweep against v0.5.1; package the first divergence as the
    #6255 advisory.  [None] would mean the bug is gone (e.g. when run
    against [fully_fixed] internally it is). *)

val confirm_fix : ?seed:int -> unit -> bool
(** The same sweep against the [&&]-fixed build finds no divergence. *)
