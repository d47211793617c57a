let none = Plan.none

(* Benign: every request is fragmented at the 1024-byte chunk the
   read loops already use, so granted sizes are unchanged. *)
let mtu_recv =
  { Plan.none with name = "mtu-recv"; seed = 102; recv_max_chunk = Some 1024 }

let short_recv =
  { Plan.none with
    name = "short-recv"; seed = 103; benign = false; recv_max_chunk = Some 7 }

let heap_pressure =
  { Plan.none with
    name = "heap-pressure"; seed = 104; benign = false;
    heap_fail_percent = Some 60 }

let fs_chaos =
  { Plan.none with
    name = "fs-chaos"; seed = 105; benign = false; fs_deny_percent = Some 55 }

(* Schedules lose or replay a step. *)
let sched_chaos =
  { Plan.none with
    name = "sched-chaos"; seed = 106; benign = false;
    sched_drop_percent = Some 40; sched_dup_percent = Some 25 }

let bitflip =
  { Plan.none with
    name = "bitflip"; seed = 107; benign = false; bitflip_percent = Some 70 }

let socket_reset =
  { Plan.none with
    name = "socket-reset"; seed = 108; benign = false;
    socket_reset_after = Some 1 }

let all =
  [ none; mtu_recv; short_recv; heap_pressure; fs_chaos; sched_chaos; bitflip;
    socket_reset ]

let smoke = [ none; short_recv; heap_pressure ]

(* The store-I/O fault catalog: replayed by the chaos disk leg (and
   the crash-recovery property) against a warm persistent store.  Not
   part of [all] — these knobs only perturb [Store.Io], so running
   them through the simulation legs would be a no-op.  They never
   change computed values, only durability, hence [benign]. *)
(* 45% of store writes reach disk truncated. *)
let disk_torn =
  { Plan.none with name = "disk-torn"; seed = 109; io_torn_percent = Some 45 }

(* 45% of store writes land with one bit flipped. *)
let disk_flip =
  { Plan.none with name = "disk-flip"; seed = 110; io_flip_percent = Some 45 }

(* 45% of store writes fail outright (ENOSPC/EACCES). *)
let disk_full =
  { Plan.none with name = "disk-full"; seed = 111; io_error_percent = Some 45 }

(* 45% of store commits die before their rename (orphan tmp). *)
let disk_crash =
  { Plan.none with name = "disk-crash"; seed = 112; io_crash_percent = Some 45 }

(* All four store-I/O faults at lower rates. *)
let disk_mixed =
  { Plan.none with
    name = "disk-mixed"; seed = 113;
    io_torn_percent = Some 20; io_flip_percent = Some 20;
    io_error_percent = Some 15; io_crash_percent = Some 15 }

let disk = [ disk_torn; disk_flip; disk_full; disk_crash; disk_mixed ]

let disk_smoke = [ disk_torn; disk_mixed ]

let find name = List.find_opt (fun p -> p.Plan.name = name) (all @ disk)
