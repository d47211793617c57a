(* The four end-to-end workloads: the real dfsm binary run as a
   subprocess, timed from the outside, every output checked.  Each is
   a closed loop driven by this one client process.

   The timed part is a run of windows, each one unit of work: one
   batch invocation, or 1000 serve requests.  The inputs of window i
   depend only on the seed and i.  Every metric but peak memory is
   taken per window or set-up and reported as the median; times are
   scaled to the reference host's speed (see [metrics_of]). *)

let names = [ "classify-cold"; "serve-mixed"; "serve-store"; "chaos-sweep" ]

(* How long a timed part runs: [Seconds (s, n)] until s seconds have
   passed and at least n windows ran; [Windows n] exactly n windows. *)
type length = Seconds of float * int | Windows of int

(* The traced run's sizes, the same at any --seconds. *)
type counts = { classify_runs : int; serve_batches : int; chaos_runs : int }

type sizes = {
  batch : length;
  (* A server keeps a record of every request for its drain summary,
     so its memory and its per-request cost grow with the requests it
     has served: serve runs a fixed number of windows, which keeps
     peak_rss_mb and the later windows comparable across runs. *)
  serve : length;
  setups : int;  (* set-up repetitions, spread over the run; setup_s is their median *)
  classify_total : int;
  traced : counts;
}

let sizes ~smoke ~seconds =
  if smoke then
    { batch = Seconds (0., 2); serve = Windows 2; setups = 1; classify_total = 50_000;
      traced = { classify_runs = 1; serve_batches = 63; chaos_runs = 1 } }
  else
    { batch = Seconds (float_of_int seconds, 5); serve = Windows (2 * seconds); setups = 15;
      classify_total = 1_000_000;
      traced = { classify_runs = 2; serve_batches = 1250; chaos_runs = 6 } }

type env = {
  dfsm : string;
  jobs : int;
  work : string;  (* scratch directory, removed at exit *)
  seed : int;
  expected : Check.request list;
}

(* [values] has one entry per window, set-up or process; the
   benchmark reports their median. *)
type metric = { name : string; unit : string; values : float list; samples : Stat.summary }

type result = {
  workload : string;
  metrics : metric list;
  calibrations : float list;  (* seconds of each Calib.measure, in order *)
  attempted : int;
  failed : int;
  problems : string list;
}

(* ---- seeds ---------------------------------------------------------- *)

(* splitmix64 over (seed, index), kept to 30 bits so every derived
   seed is a valid --seed on any platform. *)
let derive seed index =
  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let z = Int64.(add (of_int seed) (mul 0x9E3779B97F4A7C15L (of_int (index + 1)))) in
  Int64.to_int (Int64.logand (mix z) 0x3FFFFFFFL)

(* The dfsm --seed of window i. *)
let classify_seed env i = derive (derive env.seed 1) i
let chaos_seed env i = derive (derive env.seed 3) i

(* ---- helpers -------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let scratch_counter = ref 0

let fresh_dir env prefix =
  incr scratch_counter;
  Filename.concat env.work (Printf.sprintf "%s%d" prefix !scratch_counter)

let first_line s = match String.split_on_char '\n' (String.trim s) with l :: _ -> l | [] -> ""

(* One window of the timed part. *)
type window = {
  work : float;  (* reports, requests or catalog sweeps *)
  wall_s : float;
  cpu_s : float;  (* of the dfsm processes *)
  latencies_ms : float list;  (* one per invocation or request *)
}

(* A set-up or a window, with the host's speed around it: [scale] is
   [Calib.reference_s] over the mean of the calibrations just before
   and just after it. *)
type 'a scaled = { step : 'a; scale : float }

(* Run windows 0, 1, ... for [length], with [setups] set-ups spread
   evenly over it and a calibration between every two steps.  The
   host's speed drifts over seconds, and set-ups run in one burst would
   all land in the same phase.  Returns the set-ups, the windows and
   every calibration's time. *)
let timed_loop length ~setups ~setup ~window =
  ignore (Calib.measure ());  (* the first one grows the heap *)
  let calibrations = ref [ Calib.measure () ] in
  let scaled f =
    let step = f () in
    let before = List.hd !calibrations and after = Calib.measure () in
    calibrations := after :: !calibrations;
    { step; scale = Calib.reference_s /. ((before +. after) /. 2.) }
  in
  let t0 = Proc.now () in
  let progress i =
    match length with
    | Seconds (s, n) when s > 0. ->
        Float.min ((Proc.now () -. t0) /. s) (float_of_int i /. float_of_int n)
    | Seconds (_, n) | Windows n -> float_of_int i /. float_of_int n
  in
  let done_setups = ref [] and windows = ref [] and i = ref 0 in
  let setups_run () = List.length !done_setups in
  while progress !i < 1. do
    if setups_run () < setups
       && progress !i >= float_of_int (setups_run ()) /. float_of_int setups
    then done_setups := scaled setup :: !done_setups;
    windows := scaled (fun () -> window !i) :: !windows;
    incr i
  done;
  while setups_run () < setups do
    done_setups := scaled setup :: !done_setups
  done;
  (List.rev !done_setups, List.rev !windows, List.rev !calibrations)

(* Times are multiplied by their step's [scale], which gives them at
   the reference host's speed; rates are divided by it.  Each metric
   is the median over the windows, or over the set-ups. *)
let metrics_of ~setups ~windows ~peaks_mb =
  let metric name unit values = { name; unit; values; samples = Stat.summarize values } in
  let time f = List.map (fun w -> f w.step *. w.scale) windows in
  [ metric "setup_s" "s" (List.map (fun s -> s.step *. s.scale) setups);
    metric "throughput_per_s" "1/s"
      (List.map (fun w -> w.step.work /. w.step.wall_s /. w.scale) windows);
    metric "latency_p50_ms" "ms" (time (fun w -> Stat.percentile 50. w.latencies_ms));
    metric "latency_p99_ms" "ms" (time (fun w -> Stat.percentile 99. w.latencies_ms));
    metric "cpu_s" "s" (time (fun w -> w.cpu_s));
    metric "peak_rss_mb" "MB" peaks_mb ]

(* Stores are deleted as soon as their run or server ends, followed by
   a sync, outside any timed part.  Deleted before the operating system
   writes them back, a store's files never reach the disk, and after
   the sync no later step waits on an earlier step's file-system work:
   serve set-ups that each primed a fresh store took longer the more
   stores were still around. *)
let sync () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
      try ignore (Proc.reap (Proc.spawn "sync" [] ~stdin:devnull ~stdout:devnull ~stderr:devnull))
      with Unix.Unix_error _ -> ())

(* A batch verb, one invocation per window, after set-up invocations
   of [setup_args].  [check] returns the problems in one run's stdout.
   With [store], each invocation gets a fresh store. *)
let batch_workload env sizes ~workload ~setup_args ~run_args ~check_setup ~check ~units_per_run
    ~store =
  let problems = ref [] and attempted = ref 0 and peaks = ref [] in
  let invoke args check =
    let dir = fresh_dir env "store" in
    let args =
      args @ [ "-j"; string_of_int env.jobs; "--json" ] @ if store then [ "--store"; dir ] else []
    in
    let cpu0 = Proc.children_cpu_s () in
    let r = Proc.run ~work:env.work env.dfsm args in
    let cpu_s = Proc.children_cpu_s () -. cpu0 in
    if store then begin
      rm_rf dir;
      sync ()
    end;
    incr attempted;
    let ps =
      if Proc.exited_ok r.Proc.status then check r.Proc.out
      else
        [ Printf.sprintf "%s %s: %s: %s" workload (String.concat " " args)
            (Proc.status_to_string r.Proc.status) (first_line r.Proc.err) ]
    in
    problems := !problems @ ps;
    (r, cpu_s)
  in
  let setups, windows, calibrations =
    timed_loop sizes.batch ~setups:sizes.setups
      ~setup:(fun () -> (fst (invoke setup_args check_setup)).Proc.wall_s)
      ~window:(fun i ->
        let r, cpu_s = invoke (run_args i) check in
        peaks := r.Proc.peak_mb :: !peaks;
        { work = units_per_run; wall_s = r.Proc.wall_s; cpu_s;
          latencies_ms = [ 1000. *. r.Proc.wall_s ] })
  in
  { workload;
    metrics = metrics_of ~setups ~windows ~peaks_mb:(List.rev !peaks);
    calibrations;
    attempted = !attempted;
    failed = List.length !problems;
    problems = !problems }

(* ---- classify-cold -------------------------------------------------- *)

(* Set-up is one classify of the paper's 5925 reports on a fresh
   store: process start, module init, pool spawn, centroid training. *)
let classify env sizes =
  let total = sizes.classify_total in
  batch_workload env sizes ~workload:"classify-cold"
    ~setup_args:[ "classify"; "--total"; "5925"; "--seed"; string_of_int (derive env.seed 0) ]
    ~check_setup:(Check.classify ~total:5925)
    ~run_args:(fun i ->
      [ "classify"; "--total"; string_of_int total; "--chunk"; "4096";
        "--seed"; string_of_int (classify_seed env i) ])
    ~check:(Check.classify ~total) ~units_per_run:(float_of_int total) ~store:true

(* ---- chaos-sweep ---------------------------------------------------- *)

(* Set-up is one run over the three-plan smoke catalog. *)
let chaos env sizes =
  batch_workload env sizes ~workload:"chaos-sweep"
    ~setup_args:[ "chaos"; "--smoke" ]
    ~check_setup:(Check.chaos ~plans:(List.length Fault.Catalog.smoke))
    ~run_args:(fun i -> [ "chaos"; "--seed"; string_of_int (chaos_seed env i) ])
    ~check:(Check.chaos ~plans:(List.length Fault.Catalog.all)) ~units_per_run:1. ~store:false

(* ---- serve-* -------------------------------------------------------- *)

let batch_size = 8
let batches_per_window = 125  (* 1000 requests: ten beyond each window's p99 *)

(* The request script: the distinct requests of the expected payloads,
   each once per deck of [List.length expected] requests, in a seeded
   order per deck.  Every request is equally likely and every stretch
   of the script holds about the same mix.  No request log exists to
   weigh them by, so the mix is synthetic. *)
let script_request (expected : Check.request list) ~seed =
  let deck = Array.of_list expected in
  let n = Array.length deck in
  let decks = Hashtbl.create 64 in
  let shuffled d =
    let a = Array.copy deck in
    let rng = Random.State.make [| derive (derive seed 2) d |] in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  fun k ->
    let d = k / n in
    let a =
      match Hashtbl.find_opt decks d with
      | Some a -> a
      | None ->
          let a = shuffled d in
          Hashtbl.replace decks d a;
          a
    in
    a.(k mod n)

(* Batch [b] of the script: requests 8b .. 8b+7. *)
let script_batch request b = List.init batch_size (fun i -> request ((b * batch_size) + i))

let serve_script expected ~seed ~batches =
  List.init batches (script_batch (script_request expected ~seed))

(* The set-up pass: each distinct request once, in batches of 8. *)
let rec warmup_batches = function
  | [] -> []
  | l ->
      List.filteri (fun i _ -> i < batch_size) l
      :: warmup_batches (List.filteri (fun i _ -> i >= batch_size) l)

let flush_line = {|{"kind": "flush"}|}

type session = {
  srv : Proc.server;
  mutable sent : int;
  mutable responses : (string * Check.request * string) list;  (* newest first *)
}

(* Send one batch and wait for all its responses; returns each
   response's latency in ms, measured from the batch's write. *)
let send_batch s reqs =
  let ids =
    List.map
      (fun r ->
        s.sent <- s.sent + 1;
        (Printf.sprintf "r%d" s.sent, r))
      reqs
  in
  let oc = s.srv.Proc.to_child in
  List.iter (fun (id, r) -> output_string oc (Check.request_line ~id r); output_char oc '\n') ids;
  output_string oc flush_line;
  output_char oc '\n';
  let t0 = Proc.now () in
  flush oc;
  List.map
    (fun (id, r) ->
      let line = Option.value ~default:"" (In_channel.input_line s.srv.Proc.from_child) in
      let t = Proc.now () in
      s.responses <- (id, r, line) :: s.responses;
      1000. *. (t -. t0))
    ids

let serve ~store env sizes =
  let workload = if store then "serve-store" else "serve-mixed" in
  let problems = ref [] and attempted = ref 0 in
  let note ps = problems := !problems @ ps in
  (* a server is set up when it has answered each distinct request
     once; under a store that pass primes the store *)
  let start () =
    let dir = if store then Some (fresh_dir env "store") else None in
    let args =
      [ "serve"; "-j"; string_of_int env.jobs ]
      @ Option.fold ~none:[] ~some:(fun d -> [ "--store"; d ]) dir
    in
    let t0 = Proc.now () in
    let s = { srv = Proc.start_server env.dfsm args; sent = 0; responses = [] } in
    List.iter (fun b -> ignore (send_batch s b)) (warmup_batches env.expected);
    ((s, dir), Proc.now () -. t0)
  in
  let finish (s, dir) =
    let status, rest = Proc.finish_server s.srv in
    Option.iter (fun d -> rm_rf d; sync ()) dir;
    attempted := !attempted + s.sent;
    let summary = List.rev (String.split_on_char '\n' (String.trim rest)) in
    note
      (if not (Proc.exited_ok status) then
         [ Printf.sprintf "%s: server %s" workload (Proc.status_to_string status) ]
       else Check.serve_summary ~admitted:s.sent (match summary with l :: _ -> l | [] -> ""));
    note
      (List.concat_map
         (fun (id, r, line) -> Check.serve_response ~id r line)
         (List.rev s.responses))
  in
  let request = script_request env.expected ~seed:env.seed in
  (* The first set-up starts the server that serves the windows; each
     later one starts, warms and stops a server of its own while that
     one idles. *)
  let timed = ref None in
  let server () = fst (Option.get !timed) in
  let cpu () = Option.value ~default:0. (Proc.cpu_s (server ()).srv.Proc.pid) in
  let setups, windows, calibrations =
    timed_loop sizes.serve ~setups:sizes.setups
      ~setup:(fun () ->
        let s, t = start () in
        if Option.is_none !timed then timed := Some s else finish s;
        t)
      ~window:(fun w ->
        let cpu0 = cpu () and t0 = Proc.now () in
        let latencies_ms =
          List.concat
            (List.init batches_per_window (fun i ->
                 send_batch (server ()) (script_batch request ((w * batches_per_window) + i))))
        in
        { work = float_of_int (batches_per_window * batch_size); wall_s = Proc.now () -. t0;
          cpu_s = cpu () -. cpu0; latencies_ms })
  in
  (* The peak while serving, read before the drain: building the drain
     summary adds a spike of 8 to 17 MB whose height depends on where
     the major GC cycle stands, which no request controls. *)
  let peak_mb =
    float_of_int (Option.value ~default:0 (Proc.vm_hwm_kb (server ()).srv.Proc.pid)) /. 1024.
  in
  finish (Option.get !timed);
  { workload;
    metrics = metrics_of ~setups ~windows ~peaks_mb:[ peak_mb ];
    calibrations;
    attempted = !attempted;
    failed = List.length !problems;
    problems = !problems }

let run env sizes = function
  | "classify-cold" -> classify env sizes
  | "serve-mixed" -> serve ~store:false env sizes
  | "serve-store" -> serve ~store:true env sizes
  | "chaos-sweep" -> chaos env sizes
  | w -> invalid_arg ("unknown workload " ^ w)
