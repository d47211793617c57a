(* Child processes: spawning dfsm, sampling its memory and CPU time
   from /proc, and making sure nothing outlives the benchmark.

   OCaml's Unix module has no wait4, so the peak memory of a batch run
   is the largest VmHWM read from /proc/<pid>/status by a sampling
   thread every 10 ms while the main thread blocks in waitpid (which
   releases the runtime lock), and CPU time of a live process comes
   from /proc/<pid>/stat. *)

let now = Unix.gettimeofday

(* ---- every child is registered until reaped ----------------------- *)

let live : int list ref = ref []
let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  with_live (fun () -> live := List.filter (( <> ) pid) !live);
  status

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap pid))
    (with_live (fun () -> !live))

let spawn prog args ~stdin ~stdout ~stderr =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout stderr in
  with_live (fun () -> live := pid :: !live);
  pid

(* ---- /proc readers ------------------------------------------------ *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* VmHWM in kB; None once the process is a zombie or gone. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
          | _ -> None)
        (String.split_on_char '\n' text)

(* utime + stime in seconds (clock ticks of 1/100 s, Linux USER_HZ). *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some text -> (
      (* fields after the parenthesised command name, which may itself
         contain spaces; utime and stime are fields 14 and 15 *)
      let after = String.rindex text ')' + 2 in
      let fields =
        String.split_on_char ' ' (String.sub text after (String.length text - after))
      in
      match List.filteri (fun i _ -> i = 11 || i = 12) fields with
      | [ u; s ] -> Some ((float_of_string u +. float_of_string s) /. 100.)
      | _ -> None)

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ---- the RSS sampler ---------------------------------------------- *)

type sampler = { mutable peak_kb : int; mutable stop : bool; mutable thread : Thread.t option }

let start_sampler pid =
  let s = { peak_kb = 0; stop = false; thread = None } in
  let sample () =
    match vm_hwm_kb pid with Some kb -> s.peak_kb <- max s.peak_kb kb | None -> ()
  in
  sample ();
  s.thread <-
    Some
      (Thread.create
         (fun () ->
           while not s.stop do
             Thread.delay 0.01;
             sample ()
           done)
         ());
  s

let stop_sampler s =
  s.stop <- true;
  Option.iter Thread.join s.thread;
  s.thread <- None;
  float_of_int s.peak_kb /. 1024.

(* ---- one batch invocation ----------------------------------------- *)

type batch = {
  status : Unix.process_status;
  wall_s : float;
  peak_mb : float;
  out : string;
  err : string;
}

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

(* Run [prog args] to completion with stdout and stderr captured in
   files under [work] (a pipe could fill and stall the child). *)
let run ~work prog args =
  let out_path = Filename.concat work "stdout" and err_path = Filename.concat work "stderr" in
  let open_w p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let fd_in = devnull () and fd_out = open_w out_path and fd_err = open_w err_path in
  let t0 = now () in
  let pid = spawn prog args ~stdin:fd_in ~stdout:fd_out ~stderr:fd_err in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let sampler = start_sampler pid in
  let status = reap pid in
  let wall_s = now () -. t0 in
  let peak_mb = stop_sampler sampler in
  let slurp p = Option.value ~default:"" (read_file p) in
  let out = slurp out_path and err = slurp err_path in
  Sys.remove out_path;
  Sys.remove err_path;
  { status; wall_s; peak_mb; out; err }

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* ---- a long-running child on pipes -------------------------------- *)

(* The server's summary goes to stdout as well as stderr, so its
   stderr is dropped. *)
type server = { pid : int; to_child : out_channel; from_child : in_channel }

let start_server prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let fd_err = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid = spawn prog args ~stdin:in_r ~stdout:out_w ~stderr:fd_err in
  List.iter Unix.close [ in_r; out_w; fd_err ];
  { pid; to_child = Unix.out_channel_of_descr in_w; from_child = Unix.in_channel_of_descr out_r }

(* Close the child's stdin, wait for it, and return its exit status
   and the rest of its stdout. *)
let finish_server s =
  close_out_noerr s.to_child;
  let rest = In_channel.input_all s.from_child in
  close_in_noerr s.from_child;
  (reap s.pid, rest)
