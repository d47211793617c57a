(** Null HTTPD heap overflow — Figure 4, Bugtraq #5774 and the
    authors' new discovery #6255.

    [ReadPOSTData] (Figure 4b) allocates
    [PostData = calloc(contentLen + 1024, 1)] and fills it from the
    socket in 1024-byte [recv] chunks with the loop condition
    [while ((rc == 1024) || (x < contentLen))].

    Two independent flaws live here:
    {ul
    {- {b #5774} (version 0.5): [contentLen] is not checked for
       negativity, so [contentLen = -800] yields a 224-byte buffer
       while at least 1024 bytes are copied;}
    {- {b #6255} (still in 0.5.1, found while building this very
       model): the [||] should be [&&] — with a {e correct}
       [contentLen] the loop keeps reading full chunks until the
       peer stops sending, however long that is.}}

    Overflowing [PostData] rewrites the following free chunk's
    [fd]/[bk]; freeing [PostData] then unlinks that chunk and
    performs the attacker's arbitrary write onto the GOT entry of
    [free]; the next [free()] call executes Mcode. *)

type version = V0_5 | V0_5_1

type config = {
  version : version;       (** 0.5.1 adds the negative-contentLen check *)
  loop_fixed : bool;       (** the #6255 fix: [&&] instead of [||] *)
  safe_unlink : bool;      (** heap integrity check (later glibc) *)
}

val vulnerable_v0_5 : config

val v0_5_1 : config
(** #5774 fixed, #6255 still present. *)

val fully_fixed : config

type t

val setup : ?config:config -> ?aslr_seed:int -> unit -> t

val proc : t -> Machine.Process.t

val config : t -> config

val mcode_addr : t -> Machine.Addr.t

val free_slot : t -> Machine.Addr.t
(** Address of the GOT slot of [free] ([&addr_free]). *)

val usable_for : content_len:int -> int
(** Usable bytes of the buffer [calloc(contentLen + 1024)] yields. *)

val handle_post : t -> content_len:int -> body:string -> Outcome.t
(** The full request lifecycle: (0.5.1 only) contentLen check,
    [ReadPOSTData], [free(PostData)], then the server's next
    [free()] call — each [free] dispatched through the GOT. *)

val model : t -> Pfsm.Model.t
(** Figure 4's cascade of three operations / four pFSMs.  Scenario
    keys: ["request.contentLen"], ["request.body"]. *)

val scenario : content_len:int -> body:string -> Pfsm.Env.t

val benign_scenario : Pfsm.Env.t
