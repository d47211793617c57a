(** xterm log-file race condition — Figure 5.

    xterm (setuid root) logs user Tom's messages to [/usr/tom/x].  It
    checks that Tom may write the file, then opens it {e as root}.
    Between check and open, Tom can replace the file with a symlink
    to [/etc/passwd]; the root-privileged open follows the link and
    Tom's "log data" lands in the password file.

    The race is explored {e exhaustively}: every interleaving of the
    logger's [check; open; write] with the attacker's
    [unlink; symlink] is executed on a fresh filesystem. *)

type config = { open_nofollow : bool (** protection: refuse to open a symlink *) }

type state

val tom : Osmodel.User.t

val fresh_state : unit -> state

val logger_steps : config -> state Osmodel.Scheduler.step list

val attacker_steps : state Osmodel.Scheduler.step list

val bystander_steps : state Osmodel.Scheduler.step list
(** An unrelated root daemon on [/var/cron/log] — footprint-disjoint
    from the race, so partial-order reduction prunes its
    interleavings and its stat-then-read pair must not be flagged. *)

val passwd_corrupted : state -> Outcome.t option
(** [Some (File_overwritten ...)] when Tom's data reached
    [/etc/passwd]. *)

val run_race : config -> Outcome.t Osmodel.Scheduler.verdict list
(** All interleavings on which the attack wins (empty = foiled). *)

val total_interleavings : int

val model : unit -> Pfsm.Model.t
(** Figure 5's two pFSMs.  Scenario keys: ["tom.can_write"],
    ["file.is_symlink"], ["binding.unchanged"]. *)

val race_scenario : Pfsm.Env.t
(** The schedule in which the attacker swaps the file inside the
    window. *)

val benign_scenario : Pfsm.Env.t
