(** Solaris rwall arbitrary file corruption — Figure 6 (CERT
    CA-1994-06).

    [/etc/utmp] lists logged-in users' terminals; rwalld (root)
    writes the broadcast message to [/dev/<entry>] for each entry.
    Two flaws compose: [/etc/utmp] is world-writable (a configuration
    flaw standing in for the missing root-privilege check of pFSM1),
    and rwalld never checks that the entry names a terminal (pFSM2) —
    so an entry ["../etc/passwd"] makes root write the attacker's
    "message" into the password file. *)

type config = {
  utmp_world_writable : bool;  (** the shipped misconfiguration *)
  terminal_check : bool;       (** pFSM2's fix: only write to terminals *)
}

val vulnerable : config

type t

val setup : ?config:config -> unit -> t

val fs : t -> Osmodel.Filesystem.t

val attacker : Osmodel.User.t

val add_utmp_entry : t -> as_user:Osmodel.User.t -> string -> Outcome.t
(** Operation 1: append an entry to /etc/utmp. *)

val broadcast : t -> message:string -> Outcome.t list
(** Operation 2: rwalld writes [message] to every utmp entry; one
    outcome per entry. *)

val run_attack : t -> message:string -> Outcome.t
(** Add ["../etc/passwd"], broadcast, and report the worst outcome. *)

(** {2 Step-level race system}

    rwalld's handling of one utmp entry, decomposed into atomic steps
    (read utmp; stat the entry; open-and-write as root) racing an
    attacker who relinks the terminal onto [/etc/passwd] inside the
    stat/open window — the TOCTTOU reading of Figure 6. *)

type race_config = {
  recheck_at_open : bool;
      (** protection: re-stat at open, refuse non-terminals *)
}

type race_state

val race_fresh : unit -> race_state

val daemon_steps : race_config -> race_state Osmodel.Scheduler.step list

val mallory_steps : race_state Osmodel.Scheduler.step list

val race_bystander_steps : race_state Osmodel.Scheduler.step list
(** syslogd on [/var/adm/messages] — footprint-disjoint noise. *)

val race_corrupted : race_state -> Outcome.t option
(** [Some (File_overwritten ...)] when the broadcast reached
    [/etc/passwd]. *)

val model : t -> Pfsm.Model.t
(** Figure 6.  Scenario keys: ["user.is_root"], ["target.kind"]. *)

val attack_scenario : Pfsm.Env.t

val benign_scenario : Pfsm.Env.t
