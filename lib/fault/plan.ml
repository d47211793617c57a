type t = {
  name : string;
  seed : int;
  benign : bool;
  heap_fail_percent : int option;
  recv_max_chunk : int option;
  socket_reset_after : int option;
  fs_deny_percent : int option;
  sched_drop_percent : int option;
  sched_dup_percent : int option;
  bitflip_percent : int option;
  io_torn_percent : int option;
  io_flip_percent : int option;
  io_error_percent : int option;
  io_crash_percent : int option;
}

let none =
  { name = "no-op";
    seed = 1;
    benign = true;
    heap_fail_percent = None;
    recv_max_chunk = None;
    socket_reset_after = None;
    fs_deny_percent = None;
    sched_drop_percent = None;
    sched_dup_percent = None;
    bitflip_percent = None;
    io_torn_percent = None;
    io_flip_percent = None;
    io_error_percent = None;
    io_crash_percent = None }

let sim_active t =
  t.heap_fail_percent <> None || t.recv_max_chunk <> None
  || t.socket_reset_after <> None || t.fs_deny_percent <> None
  || t.sched_drop_percent <> None || t.sched_dup_percent <> None
  || t.bitflip_percent <> None

let io_active t =
  t.io_torn_percent <> None || t.io_flip_percent <> None
  || t.io_error_percent <> None || t.io_crash_percent <> None

let pp ppf t =
  let knob name ppv = Option.map (fun v -> Format.asprintf "%s=%a" name ppv v) in
  let d ppf = Format.fprintf ppf "%d" in
  let active =
    List.filter_map Fun.id
      [ knob "heap-fail%" d t.heap_fail_percent;
        knob "recv-chunk" d t.recv_max_chunk;
        knob "reset-after" d t.socket_reset_after;
        knob "fs-deny%" d t.fs_deny_percent;
        knob "sched-drop%" d t.sched_drop_percent;
        knob "sched-dup%" d t.sched_dup_percent;
        knob "bitflip%" d t.bitflip_percent;
        knob "io-torn%" d t.io_torn_percent;
        knob "io-flip%" d t.io_flip_percent;
        knob "io-error%" d t.io_error_percent;
        knob "io-crash%" d t.io_crash_percent ]
  in
  Format.fprintf ppf "%s (seed %d%s): %s" t.name t.seed
    (if t.benign then ", benign" else "")
    (if active = [] then "no faults" else String.concat " " active)
