module Supervisor = Resilience.Supervisor
module Run_report = Resilience.Run_report

type leg_error = { stage : string; detail : string }

type leg_outcome = Ran of Run_report.t | Failed of leg_error

type leg = {
  leg_name : string;
  expected_items : int;
  outcome : leg_outcome;
}

type plan_run = {
  plan : Fault.Plan.t;
  events : int;
  legs : leg list;
}

type report = {
  seed : int;
  retry_max : int;
  runs : plan_run list;
  memo : Pfsm.Analysis.memo_stats;
}

let default_seed = 20021130

let matrix_items () =
  List.map
    (fun (app, entries) ->
       { Supervisor.id = "matrix:" ^ app;
         resource = app;
         work = (fun () -> List.length (entries ())) })
    Exploit.Consistency.app_groups
  @ [ { Supervisor.id = "matrix:lemma";
        resource = "lemma";
        work =
          (fun () ->
             if Exploit.Protection.lemma_holds () then 1
             else raise (Resilience.Quarantine.Reject "protection lemma broken")) } ]

let curated_csv = lazy (Vulndb.Csv.of_database (Vulndb.Seed_data.database ()))

let run_one ~config ~csv plan =
  Obs.Span.with_span ~cat:"chaos" ("plan:" ^ plan.Fault.Plan.name) @@ fun () ->
  let matrix_expected = List.length Exploit.Consistency.app_groups + 1 in
  let lint_expected = List.length Minic.Corpus.all in
  let ingest_expected =
    Vulndb.Database.size (Vulndb.Seed_data.database ())
  in
  let legs, events =
    Fault.Hooks.run plan (fun () ->
        let matrix =
          Supervisor.run ~label:"chaos-matrix" ~config (matrix_items ())
        in
        let _, lint = Staticcheck.Linter.supervised_sweep ~supervise:config () in
        let ingest =
          match Resilience.Ingest.csv ~label:"chaos-ingest" ~config csv with
          | Ok o -> Ran o.Resilience.Ingest.report
          | Error e ->
              (* A document-level ingest failure (the text does not
                 tokenise, the header is wrong) is a typed leg outcome,
                 not a [failwith]: the report renders it, [violations]
                 flags it, and the CLI maps it to exit 1 per the
                 exit-code contract instead of crashing with 125. *)
              Failed
                { stage = "ingest"; detail = Vulndb.Csv.error_to_string e }
        in
        [ { leg_name = "matrix";
            expected_items = matrix_expected;
            outcome = Ran matrix.Supervisor.report };
          { leg_name = "lint";
            expected_items = lint_expected;
            outcome = Ran lint };
          { leg_name = "ingest"; expected_items = ingest_expected;
            outcome = ingest } ])
  in
  { plan; events = List.length events; legs }

let run ?(seed = default_seed) ?(plans = Fault.Catalog.all)
    ?(config = Supervisor.default_config) ?csv () =
  (* Fresh memo per run: the report carries the counters, and [stable]
     byte-compares consecutive runs — a warm cache would skew the
     second run's numbers.  Plans fan out over the Par pool; each
     worker installs its own domain-local injector, so every plan's
     event stream is exactly the sequential one, and the memo counters
     stay deterministic because misses = distinct (model, scenario)
     digests regardless of which plan computes a shared key first. *)
  Pfsm.Analysis.memo_reset ();
  let before = Pfsm.Analysis.memo_stats () in
  let csv = match csv with Some s -> s | None -> Lazy.force curated_csv in
  let runs =
    Par.map_list ~label:"chaos.plans"
      (fun (plan : Fault.Plan.t) ->
         let retry =
           { config.Supervisor.retry with
             Resilience.Retry.seed =
               seed lxor Hashtbl.hash plan.Fault.Plan.name }
         in
         run_one ~config:{ config with Supervisor.retry } ~csv plan)
      plans
  in
  let after = Pfsm.Analysis.memo_stats () in
  { seed;
    retry_max = config.Supervisor.retry.Resilience.Retry.max_attempts;
    runs;
    memo =
      { lookups = after.lookups - before.lookups;
        hits = after.hits - before.hits;
        misses = after.misses - before.misses } }

let leg_violations retry_max (pr : plan_run) (l : leg) =
  let where =
    Printf.sprintf "plan %s, %s leg" pr.plan.Fault.Plan.name l.leg_name
  in
  match l.outcome with
  | Failed { stage; detail } ->
      [ Printf.sprintf "%s: LEG FAILED (%s: %s)" where stage detail ]
  | Ran report ->
      let lost =
        if Run_report.no_lost ~expected:l.expected_items report then []
        else
          [ Printf.sprintf "%s: LOST ITEMS (%d of %d accounted for)" where
              (Run_report.total report) l.expected_items ]
      in
      let unbounded =
        if Run_report.max_attempts report <= retry_max then []
        else
          [ Printf.sprintf
              "%s: UNBOUNDED RETRIES (%d attempts > policy max %d)" where
              (Run_report.max_attempts report)
              retry_max ]
      in
      lost @ unbounded

let violations r =
  List.concat_map
    (fun pr -> List.concat_map (leg_violations r.retry_max pr) pr.legs)
    r.runs

let no_lost_items r =
  List.for_all
    (fun pr ->
       List.for_all
         (fun l ->
           match l.outcome with
           | Failed _ -> false  (* every item of a failed leg is lost *)
           | Ran report -> Run_report.no_lost ~expected:l.expected_items report)
         pr.legs)
    r.runs

let bounded_retries r =
  List.for_all
    (fun pr ->
       List.for_all
         (fun l ->
           match l.outcome with
           | Failed _ -> true  (* nothing ran, nothing retried *)
           | Ran report -> Run_report.max_attempts report <= r.retry_max)
         pr.legs)
    r.runs

let ok r = violations r = []

let leg_to_json l =
  let outcome =
    match l.outcome with
    | Ran report -> ("report", Run_report.to_json report)
    | Failed { stage; detail } ->
        ("failed", Json.(Obj [ ("stage", Str stage); ("detail", Str detail) ]))
  in
  Json.(Obj [ ("name", Str l.leg_name); ("expected", Int l.expected_items); outcome ])

let plan_run_to_json pr =
  Json.(
    Obj
      [ ("plan", Str pr.plan.Fault.Plan.name); ("benign", Bool pr.plan.Fault.Plan.benign);
        ("events", Int pr.events); ("legs", List (List.map leg_to_json pr.legs)) ])

let to_json r =
  let { Pfsm.Analysis.lookups; hits; misses } = r.memo in
  Json.(
    to_string
      (Obj
         [ ("seed", Int r.seed); ("retry_max", Int r.retry_max); ("ok", Bool (ok r));
           ("memo",
            Obj [ ("lookups", Int lookups); ("hits", Int hits); ("misses", Int misses) ]);
           ("plans", List (List.map plan_run_to_json r.runs)) ]))

let stable ?seed ?plans () =
  to_json (run ?seed ?plans ()) = to_json (run ?seed ?plans ())

(* ---- the server soak leg ------------------------------------------ *)

type soak_run = {
  soak_plan : Fault.Plan.t;
  soak_events : int;
  lines_emitted : int;
  summary : Serve.Server.summary;
}

type soak_report = {
  soak_seed : int;
  script_lines : int;
  work_requests : int;
  expect_shed : int;
  expect_malformed : int;
  soak_runs : soak_run list;
}

let soak_config =
  { Serve.Server.default_config with
    Serve.Server.capacity = 4;
    max_line = 512 }

(* A canned request mix that exercises every server path: supervised
   work across request classes, retries (boom fault), quarantine (boom
   crash), stats, a burst past the admission bound (shedding), and
   malformed + oversized lines — all between explicit flush ticks so
   queue occupancy is a pure function of the script. *)
let soak_script () =
  [ "# chaos soak script";
    {|{"id":"w1","kind":"analyze","app":"sendmail"}|};
    {|{"id":"w2","kind":"exploit","app":"nullhttpd"}|};
    {|{"id":"w3","kind":"lint","target":"tTflag (vulnerable)"}|};
    {|{"id":"w4","kind":"boom","mode":"fault","times":2}|};
    {|{"kind":"flush"}|};
    {|{"id":"s1","kind":"stats"}|};
    "this line is not a request";
    {|{"id":"w5","kind":"boom","mode":"crash"}|};
    {|{"id":"w6","kind":"lint","target":"Log (fixed)"}|};
    {|{"kind":"flush"}|} ]
  @ List.init 8 (fun i ->
        Printf.sprintf {|{"id":"b%d","kind":"lint","target":"Log (vulnerable)"}|}
          (i + 1))
  @ [ {|{"id":"big","kind":"lint","target":"|} ^ String.make 600 'x' ^ {|"}|};
      {|{"id":"s2","kind":"stats","full":false}|};
      {|{"kind":"shutdown"}|} ]

let soak_work_requests = 6 + 8  (* w1-w6 plus the b1-b8 burst *)
let soak_expect_shed = 8 - soak_config.Serve.Server.capacity
let soak_expect_malformed = 2  (* the non-JSON line, the oversized line *)

let soak ?(seed = default_seed) ?(plans = Fault.Catalog.all)
    ?(config = soak_config) () =
  let script = soak_script () in
  let soak_runs =
    (* Same fan-out discipline as [run]: each pool worker installs its
       own domain-local injector, and the server skips speculation
       under an active injector, so every plan's response stream is
       exactly the sequential one. *)
    Par.map_list ~label:"chaos.soak"
      (fun (plan : Fault.Plan.t) ->
         let config =
           { config with
             Serve.Server.retry =
               { config.Serve.Server.retry with
                 Resilience.Retry.seed =
                   seed lxor Hashtbl.hash plan.Fault.Plan.name } }
         in
         let (lines, summary), events =
           Fault.Hooks.run plan (fun () ->
               Serve.Server.run_script ~config script)
         in
         { soak_plan = plan;
           soak_events = List.length events;
           lines_emitted = List.length lines;
           summary })
      plans
  in
  { soak_seed = seed;
    script_lines = List.length script;
    work_requests = soak_work_requests;
    expect_shed = soak_expect_shed;
    expect_malformed = soak_expect_malformed;
    soak_runs }

let soak_run_violations r (sr : soak_run) =
  let where = Printf.sprintf "plan %s, serve soak" sr.soak_plan.Fault.Plan.name in
  let s = sr.summary in
  let check cond msg = if cond then [] else [ Printf.sprintf "%s: %s" where msg ] in
  check (Serve.Server.accounted s)
    (Printf.sprintf
       "LOST REQUESTS (%d admitted, %d terminal responses)" s.Serve.Server.admitted
       (s.Serve.Server.completed + s.Serve.Server.errors
        + s.Serve.Server.deadlined + s.Serve.Server.quarantined))
  @ check s.Serve.Server.drained "NOT DRAINED (input ended with work queued)"
  @ check
      (s.Serve.Server.admitted + s.Serve.Server.shed = r.work_requests)
      (Printf.sprintf "LOST ADMISSION (%d + %d shed <> %d work requests)"
         s.Serve.Server.admitted s.Serve.Server.shed r.work_requests)
  @ check
      (s.Serve.Server.shed = r.expect_shed)
      (Printf.sprintf "SHED DRIFT (%d shed, expected %d)" s.Serve.Server.shed
         r.expect_shed)
  @ check
      (s.Serve.Server.malformed = r.expect_malformed)
      (Printf.sprintf "MALFORMED DRIFT (%d, expected %d)"
         s.Serve.Server.malformed r.expect_malformed)
  @ check
      (Run_report.no_lost ~expected:s.Serve.Server.admitted
         s.Serve.Server.report)
      "REPORT GAP (report items <> admitted requests)"
  @ check
      (Run_report.max_attempts s.Serve.Server.report
       <= soak_config.Serve.Server.retry.Resilience.Retry.max_attempts)
      "UNBOUNDED RETRIES"

let soak_violations r = List.concat_map (soak_run_violations r) r.soak_runs

let soak_ok r = soak_violations r = []

let soak_run_to_json sr =
  Json.(
    Obj
      [ ("plan", Str sr.soak_plan.Fault.Plan.name);
        ("benign", Bool sr.soak_plan.Fault.Plan.benign); ("events", Int sr.soak_events);
        ("lines", Int sr.lines_emitted);
        ("summary", Serve.Server.summary_to_json sr.summary) ])

let soak_to_json r =
  Json.(
    to_string
      (Obj
         [ ("seed", Int r.soak_seed); ("ok", Bool (soak_ok r));
           ("script_lines", Int r.script_lines); ("work_requests", Int r.work_requests);
           ("plans", List (List.map soak_run_to_json r.soak_runs)) ]))

let soak_stable ?seed ?plans () =
  soak_to_json (soak ?seed ?plans ()) = soak_to_json (soak ?seed ?plans ())

let pp_soak ppf r =
  Format.fprintf ppf "@[<v>chaos soak: seed %d, %d plan%s, %d-line script@,"
    r.soak_seed
    (List.length r.soak_runs)
    (if List.length r.soak_runs = 1 then "" else "s")
    r.script_lines;
  List.iter
    (fun sr ->
       let s = sr.summary in
       Format.fprintf ppf
         "plan %-14s%s  %2d admitted (%d ok, %d err, %d ddl, %d quar), %d \
          shed, %d malformed, %d fault event%s@,"
         sr.soak_plan.Fault.Plan.name
         (if sr.soak_plan.Fault.Plan.benign then " (benign)" else "")
         s.Serve.Server.admitted s.Serve.Server.completed
         s.Serve.Server.errors s.Serve.Server.deadlined
         s.Serve.Server.quarantined s.Serve.Server.shed
         s.Serve.Server.malformed sr.soak_events
         (if sr.soak_events = 1 then "" else "s"))
    r.soak_runs;
  (match soak_violations r with
   | [] ->
       Format.fprintf ppf
         "chaos soak: contract holds (zero lost requests, clean drain)"
   | vs ->
       List.iter (fun v -> Format.fprintf ppf "%s@," v) vs;
       Format.fprintf ppf "chaos soak: CONTRACT VIOLATED");
  Format.fprintf ppf "@]"

(* ---- the disk-fault leg ------------------------------------------- *)

type disk_run = {
  disk_plan : Fault.Plan.t;
  disk_events : int;
  disk_store : Store.Disk.stats;  (** the faulted cold+warm runs' counters *)
  sweep_matches : bool;
  fsck : Store.Fsck.report;
  post_repair : Store.Disk.stats;  (** one honest warm run after repair *)
  post_repair_matches : bool;
}

type disk_report = {
  disk_seed : int;
  disk_runs : disk_run list;
}

(* Scratch store directories under the system temp dir, one per plan
   run, removed afterwards.  [Filename.temp_file] gives a unique name
   without a unix dependency; the file is replaced by a directory. *)
let fresh_store_dir () =
  let path = Filename.temp_file "dfsm_store" "" in
  Sys.remove path;
  Store.Io.mkdir_p path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  end
  else Store.Io.remove_if_exists path

(* One plan: an honest reference sweep, then a cold and a warm sweep
   against a fresh store inside [Fault.Hooks.run] — every store write
   subject to the plan's io knobs, every corrupted record degrading to
   recompute — then [fsck ~repair:true] and one honest warm run over
   the repaired store.  The robustness contract is that both faulted
   sweeps and the post-repair sweep render byte-identically to the
   reference: injected durability faults may cost recomputes, never
   results. *)
let disk_run_one ~seed:_ plan =
  Obs.Span.with_span ~cat:"chaos" ("disk:" ^ plan.Fault.Plan.name) @@ fun () ->
  let sweep () = Staticcheck.Linter.sweep_to_json (Staticcheck.Linter.corpus_sweep ()) in
  let reference = sweep () in
  let dir = fresh_store_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let since before = Store.Disk.sub_stats (Store.Disk.stats ()) before in
  let (faulted_jsons, disk_store), events =
    Fault.Hooks.run plan (fun () ->
        let before = Store.Disk.stats () in
        let disk = Store.Disk.open_ ~dir in
        Store.Handle.with_store (Some disk) (fun () ->
            let cold = sweep () in
            let warm = sweep () in
            ([ cold; warm ], since before)))
  in
  let fsck =
    let disk = Store.Disk.open_ ~dir in
    let r = Store.Fsck.scan ~repair:true disk in
    Store.Disk.close disk;
    r
  in
  let post_disk = Store.Disk.open_ ~dir in
  let before = Store.Disk.stats () in
  let post_json, post_repair =
    Store.Handle.with_store (Some post_disk) (fun () ->
        let j = sweep () in
        (j, since before))
  in
  { disk_plan = plan;
    disk_events = List.length events;
    disk_store;
    sweep_matches = List.for_all (( = ) reference) faulted_jsons;
    fsck;
    post_repair;
    post_repair_matches = reference = post_json }

let disk ?(seed = default_seed) ?(plans = Fault.Catalog.disk) () =
  { disk_seed = seed; disk_runs = List.map (disk_run_one ~seed) plans }

let disk_run_violations (dr : disk_run) =
  let where = Printf.sprintf "plan %s, disk leg" dr.disk_plan.Fault.Plan.name in
  let check cond msg = if cond then [] else [ Printf.sprintf "%s: %s" where msg ] in
  check dr.sweep_matches "RESULT DRIFT (faulted store changed sweep output)"
  @ check (Store.Fsck.clean dr.fsck) "UNCLEAN STORE (fsck --repair left damage)"
  @ check dr.post_repair_matches
      "RESULT DRIFT (post-repair warm run changed sweep output)"
  @ check
      (dr.post_repair.Store.Disk.corrupt = 0)
      (Printf.sprintf "POST-REPAIR CORRUPTION (%d records)"
         dr.post_repair.Store.Disk.corrupt)

let disk_violations r = List.concat_map disk_run_violations r.disk_runs

let disk_ok r = disk_violations r = []

let disk_run_to_json dr =
  Json.(
    Obj
      [ ("plan", Str dr.disk_plan.Fault.Plan.name); ("events", Int dr.disk_events);
        ("store", Store.Disk.stats_to_json dr.disk_store);
        ("sweep_matches", Bool dr.sweep_matches); ("fsck", Store.Fsck.to_json dr.fsck);
        ("post_repair", Store.Disk.stats_to_json dr.post_repair);
        ("post_repair_matches", Bool dr.post_repair_matches) ])

let disk_to_json r =
  Json.(
    to_string
      (Obj
         [ ("seed", Int r.disk_seed); ("ok", Bool (disk_ok r));
           ("plans", List (List.map disk_run_to_json r.disk_runs)) ]))

let pp_disk ppf r =
  Format.fprintf ppf "@[<v>chaos disk: seed %d, %d plan%s@," r.disk_seed
    (List.length r.disk_runs)
    (if List.length r.disk_runs = 1 then "" else "s");
  List.iter
    (fun dr ->
       let s = dr.disk_store in
       Format.fprintf ppf
         "plan %-14s %2d fault event%s  %d hits, %d misses, %d corrupt, %d \
          repaired, %d writes (%d failed); fsck %s@,"
         dr.disk_plan.Fault.Plan.name dr.disk_events
         (if dr.disk_events = 1 then " " else "s")
         s.Store.Disk.hits s.Store.Disk.misses s.Store.Disk.corrupt
         s.Store.Disk.repaired s.Store.Disk.writes s.Store.Disk.write_failures
         (if Store.Fsck.clean dr.fsck then "clean" else "UNCLEAN"))
    r.disk_runs;
  (match disk_violations r with
   | [] ->
       Format.fprintf ppf
         "chaos disk: contract holds (byte-identical results under every \
          durability fault)"
   | vs ->
       List.iter (fun v -> Format.fprintf ppf "%s@," v) vs;
       Format.fprintf ppf "chaos disk: CONTRACT VIOLATED");
  Format.fprintf ppf "@]"

let pp_leg ppf l =
  match l.outcome with
  | Ran report ->
      Format.fprintf ppf
        "%-8s %2d items: %2d completed (%d retried), %2d quarantined, waited %d"
        l.leg_name (Run_report.total report)
        (Run_report.completed report)
        (Run_report.retried report)
        (Run_report.quarantined report)
        report.Run_report.waited
  | Failed { stage; detail } ->
      Format.fprintf ppf "%-8s FAILED (%s: %s)" l.leg_name stage detail

let pp ppf r =
  Format.fprintf ppf "@[<v>chaos: seed %d, %d plan%s@," r.seed
    (List.length r.runs)
    (if List.length r.runs = 1 then "" else "s");
  List.iter
    (fun pr ->
       Format.fprintf ppf "plan %-14s%s  %d fault event%s@,"
         pr.plan.Fault.Plan.name
         (if pr.plan.Fault.Plan.benign then " (benign)" else "")
         pr.events
         (if pr.events = 1 then "" else "s");
       List.iter (fun l -> Format.fprintf ppf "  %a@," pp_leg l) pr.legs)
    r.runs;
  Format.fprintf ppf "analysis memo: %d lookups, %d hits, %d misses@,"
    r.memo.Pfsm.Analysis.lookups r.memo.Pfsm.Analysis.hits
    r.memo.Pfsm.Analysis.misses;
  (match violations r with
   | [] -> Format.fprintf ppf "chaos: contract holds (no lost items, retries bounded)"
   | vs ->
       List.iter (fun v -> Format.fprintf ppf "%s@," v) vs;
       Format.fprintf ppf "chaos: CONTRACT VIOLATED");
  Format.fprintf ppf "@]"
