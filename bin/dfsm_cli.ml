(* dfsm — command-line front end to the pFSM vulnerability-analysis
   library: database statistics, per-application FSM analysis,
   Graphviz export, exploit driving, discovery, and lemma checking.

   Exit-code contract (tested in test/dune, documented in README.md):
     0   success — the requested analysis ran and found nothing wrong
     1   the analysis itself found a vulnerability or a violated gate
         (refuted check, confirmed lint finding, corpus mismatch,
         discovery hit, broken lemma, fault/chaos contract violation)
     2   usage error — unknown command, unknown application, bad
         arguments (usage is printed to stderr)
     125 unexpected internal error *)

(* The application registry lives in Serve.Handlers — one source of
   truth for the CLI's positional APP argument and the server's
   analyze/exploit requests.  Unknown names cannot reach these through
   the CLI (APP is a cmdliner enum). *)
let apps = Serve.Handlers.apps

let model_of = Serve.Handlers.model_of

let scenarios_of = Serve.Handlers.scenarios_of

(* A failed analysis gate: say why on stderr, exit 1. *)
let gate ~ok msg =
  if ok then `Ok 0
  else begin
    Printf.eprintf "%s\n%!" msg;
    `Ok 1
  end

(* ---- supervision plumbing ---------------------------------------- *)

(* [--resume] / [--checkpoint FILE] turn a sweep into a checkpointed
   one: completed item ids are journalled as they finish, a re-run
   skips them, and the journal is removed once the sweep completes
   with nothing quarantined (so the next invocation starts fresh). *)
let checkpoint_of ~default resume path =
  match resume, path with
  | false, None -> None
  | _, path ->
      let cp = Resilience.Checkpoint.load (Option.value path ~default) in
      (match Resilience.Checkpoint.skipped_detail cp with
       | [] -> ()
       | lines ->
           (* a torn final line after a crash, or corruption: the
              affected items simply re-run; say so instead of hiding it *)
           Printf.eprintf
             "warning: checkpoint journal: %d damaged line(s) skipped (%s); \
              affected items will re-run\n%!"
             (List.length lines)
             (String.concat ", "
                (List.map
                   (fun (n, d) ->
                     Printf.sprintf "line %d: %s" n
                       (Resilience.Checkpoint.damage_to_string d))
                   lines)));
      Some cp

let sweep_finished cp report ~expected =
  match cp with
  | Some cp
    when Resilience.Run_report.ok report
         && Resilience.Run_report.no_lost ~expected report ->
      Resilience.Checkpoint.reset cp
  | _ -> ()

let supervising resume checkpoint stop_after =
  resume || checkpoint <> None || stop_after <> None

(* ---- observability ------------------------------------------------ *)

(* [--trace FILE] / [--metrics FILE] wrap a batch command in the obs
   layer: tracing starts before the command body and the merged trace
   is written on the way out (even when the gate fails), as JSONL when
   FILE ends in .jsonl and Chrome trace_event JSON otherwise.  Metrics
   are reset up front so the written snapshot covers exactly this
   invocation.  Traces are over virtual time — byte-identical for a
   given seed at every -j. *)
let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

let with_obs ?trace ?metrics k =
  if metrics <> None then Obs.Metrics.reset ();
  if trace <> None then Obs.Trace.start ();
  let finish () =
    (match trace with
     | None -> ()
     | Some path ->
         let events = Obs.Trace.drain () in
         let rendered =
           if Filename.check_suffix path ".jsonl" then Obs.Trace.to_jsonl events
           else Obs.Trace.to_chrome events
         in
         write_file path rendered);
    match metrics with
    | None -> ()
    | Some path ->
        write_file path
          (Json.to_string ~layout:Indented
             (Obs.Metrics.to_json (Obs.Metrics.snapshot ()))
           ^ "\n")
  in
  Fun.protect ~finally:finish k

(* ---- persistence -------------------------------------------------- *)

(* [--store DIR] / $DFSM_STORE install the crash-consistent result
   store for the duration of the command: memoized analysis traces and
   lint reports are served from verified on-disk records and written
   back on computation, so a warm store makes a rerun recompute
   nothing — across processes.  Corruption, version skew and write
   failures all degrade to recompute (counted in the store.* metrics),
   never to a wrong answer or a crash. *)
let with_store store k =
  match store with
  | None -> k ()
  | Some dir -> (
      match Store.Disk.open_ ~dir with
      | disk -> Store.Handle.with_store (Some disk) k
      | exception Sys_error msg -> `Error (false, "--store: " ^ msg))

(* ---- parallelism -------------------------------------------------- *)

(* Resolve the worker-domain count before the command body runs:
   [-j N] wins, else $DFSM_JOBS, else the hardware count.  Invalid
   values (non-integers, < 1) are usage errors — exit 2 per the
   contract above.  Output never depends on the resolved count: every
   parallel path reduces in input order. *)
let with_jobs jobs k =
  match Par.configure ?jobs () with
  | Ok _ -> k ()
  | Error msg -> `Error (false, msg)

(* ---- commands ---------------------------------------------------- *)

let stats jobs seed =
  with_jobs jobs @@ fun () ->
  let db = Vulndb.Synth.generate ~seed in
  Format.printf "%a@." Vulndb.Stats.pp_breakdown db;
  `Ok 0

let analyze app =
  let model = model_of app in
  let scenarios = scenarios_of app in
  Format.printf "%a@." Pfsm.Pretty.pp_model model;
  let report = Pfsm.Analysis.analyze model ~scenarios in
  Format.printf "%a@." Pfsm.Pretty.pp_report report;
  Format.printf "taxonomy:@.%a@." Pfsm.Pretty.pp_matrix
    (Pfsm.Analysis.taxonomy_matrix model);
  `Ok 0

let dot app =
  print_string (Pfsm.Dot.of_model (model_of app));
  `Ok 0

let exploit_cmd jobs store resume checkpoint stop_after trace metrics =
  with_jobs jobs @@ fun () ->
  with_store store @@ fun () ->
  with_obs ?trace ?metrics @@ fun () ->
  if supervising resume checkpoint stop_after then begin
    let cp = checkpoint_of ~default:".dfsm-exploit.checkpoint" resume checkpoint in
    let rows, report =
      Exploit.Driver.supervised_rows ?checkpoint:cp ?stop_after ~parallel:true ()
    in
    let expected = List.length Exploit.Driver.app_row_groups in
    sweep_finished cp report ~expected;
    Format.printf "%a@." Exploit.Driver.pp_rows rows;
    Format.printf "%a@." Resilience.Run_report.pp report;
    gate
      ~ok:(Exploit.Driver.rows_ok rows && Resilience.Run_report.ok report)
      "exploit: verdict mismatch or quarantined application"
  end
  else begin
    let rows = Exploit.Driver.all_rows () in
    Format.printf "%a@." Exploit.Driver.pp_rows rows;
    gate ~ok:(Exploit.Driver.rows_ok rows) "exploit: verdict mismatch"
  end

let consistency () =
  Format.printf "%a@." Exploit.Consistency.pp_entries (Exploit.Consistency.check_all ());
  let ok = Exploit.Consistency.all_consistent () in
  Format.printf "all consistent: %b@." ok;
  gate ~ok "consistency: model and simulation disagree"

let discover jobs app =
  with_jobs jobs @@ fun () ->
  let differential =
    match app with
    | "nullhttpd" -> (
        match Discovery.Differential.rediscover_6255 () with
        | Some finding ->
            Format.printf "%a@.@." Discovery.Finding.pp finding;
            1
        | None ->
            Format.printf "differential sweep found no divergence@.";
            0)
    | _ -> 0
  in
  let findings = Discovery.Search.discover (model_of app) ~scenarios:(scenarios_of app) in
  List.iter (fun f -> Format.printf "%a@.@." Discovery.Finding.pp f) findings;
  Format.printf "%d hidden-path finding(s)@." (List.length findings);
  if List.length findings + differential = 0 then `Ok 0
  else begin
    Printf.eprintf "discover: hidden path found in %s\n%!" app;
    `Ok 1
  end

let lemma () =
  Format.printf "%a@." Exploit.Protection.pp_entries (Exploit.Protection.entries ());
  let ok = Exploit.Protection.lemma_holds () in
  Format.printf "lemma holds: %b@." ok;
  gate ~ok "lemma: a protected exploit was not foiled"

(* Structural model metrics (Observations 1-3) plus the observability
   summary: per-pFSM transition coverage over every application's
   scenarios — the Figure-8 taxonomy as a measured quantity — and the
   runtime metrics snapshot the sweep accumulated. *)
let metrics jobs store json =
  with_jobs jobs @@ fun () ->
  with_store store @@ fun () ->
  Obs.Metrics.reset ();
  Pfsm.Analysis.memo_reset ();
  let coverage =
    List.fold_left
      (fun acc app ->
        let report =
          Pfsm.Analysis.analyze ~memo:true (model_of app)
            ~scenarios:(scenarios_of app)
        in
        Pfsm.Coverage.merge acc (Pfsm.Coverage.of_report report))
      Pfsm.Coverage.empty apps
  in
  let snap = Obs.Metrics.snapshot () in
  let memo = Pfsm.Analysis.memo_stats () in
  let store_stats = Option.map Store.Disk.stats (Store.Handle.get ()) in
  if json then
    print_endline
      (Json.to_string ~layout:Indented
         (Json.Obj
            ([ ("coverage", Pfsm.Coverage.to_json coverage);
               ("memo",
                Json.Obj
                  [ ("lookups", Json.Int memo.Pfsm.Analysis.lookups);
                    ("hits", Json.Int memo.Pfsm.Analysis.hits);
                    ("misses", Json.Int memo.Pfsm.Analysis.misses) ]) ]
             @ (match store_stats with
                | None -> []
                | Some s -> [ ("store", Store.Disk.stats_to_json s) ])
             @ [ ("obs", Obs.Metrics.to_json snap) ])))
  else begin
    let ms = List.map (fun a -> Pfsm.Metrics.of_model (model_of a)) apps in
    Format.printf "%a@." Pfsm.Metrics.pp_table ms;
    Format.printf "%a@." Pfsm.Coverage.pp coverage;
    Format.printf "analysis memo: %d lookups, %d hits, %d misses@."
      memo.Pfsm.Analysis.lookups memo.Pfsm.Analysis.hits
      memo.Pfsm.Analysis.misses;
    (match store_stats with
    | None -> ()
    | Some s ->
        Format.printf
          "store: %d hits, %d misses, %d corrupt, %d repaired, %d writes (%d \
           failed)@."
          s.Store.Disk.hits s.Store.Disk.misses s.Store.Disk.corrupt
          s.Store.Disk.repaired s.Store.Disk.writes
          s.Store.Disk.write_failures);
    Format.printf "runtime metrics:@.%a@." Obs.Metrics.pp snap
  end;
  `Ok 0

let ablation () =
  Format.printf "%a@." Exploit.Ablation.pp_rows (Exploit.Ablation.rows ());
  let ok = Exploit.Ablation.control_flow_hijacks_prevented () in
  Format.printf "control-flow hijacks prevented: %b@." ok;
  gate ~ok "ablation: a control-flow hijack survived ASLR"

let csv jobs seed =
  with_jobs jobs @@ fun () ->
  print_string (Vulndb.Csv.of_database (Vulndb.Synth.generate ~seed));
  `Ok 0

let trend jobs seed =
  with_jobs jobs @@ fun () ->
  let db = Vulndb.Synth.generate ~seed in
  Format.printf "reports per year:@.%a@." Vulndb.Trend.pp_series
    (Vulndb.Trend.per_year db);
  Format.printf "studied family per year:@.%a@." Vulndb.Trend.pp_series
    (Vulndb.Trend.family_per_year db);
  `Ok 0

(* Check a user-supplied spec/impl predicate pair over a domain:
   the paper's methodology as a standalone tool. *)
let check spec_src impl_src ints strings =
  match Pfsm.Parse.predicate spec_src, Pfsm.Parse.predicate impl_src with
  | Error e, _ ->
      `Error (false, Printf.sprintf "--spec: at %d: %s" e.Pfsm.Parse.position
                e.Pfsm.Parse.message)
  | _, Error e ->
      `Error (false, Printf.sprintf "--impl: at %d: %s" e.Pfsm.Parse.position
                e.Pfsm.Parse.message)
  | Ok spec, Ok impl ->
      let pfsm =
        Pfsm.Primitive.make ~name:"pFSM" ~kind:Pfsm.Taxonomy.Content_attribute_check
          ~activity:"user-supplied check" ~spec ~impl
      in
      Format.printf "%a@.@." Pfsm.Pretty.pp_pfsm pfsm;
      let domain =
        match ints, strings with
        | Some (low, high), _ -> Pfsm.Verify.Int_range { low; high }
        | None, _ :: _ -> Pfsm.Verify.Strings strings
        | None, [] -> Pfsm.Verify.Int_range { low = -1024; high = 1024 }
      in
      let result = Pfsm.Verify.verify pfsm domain in
      Format.printf "%a@." Pfsm.Verify.pp_result result;
      (match result with
       | Pfsm.Verify.Verified _ -> `Ok 0
       | Pfsm.Verify.Refuted _ ->
           Printf.eprintf "check: impl does not imply spec (hidden path)\n%!";
           `Ok 1
       | Pfsm.Verify.Budget_exhausted _ | Pfsm.Verify.Domain_too_large _ ->
           Printf.eprintf "check: verification did not complete\n%!";
           `Ok 1)

(* The automatic tool on a source file: parse mini-C, extract the
   implementation predicate, verify it against the analyst's spec. *)
let extract file object_var spec_src ints =
  match Pfsm.Parse.predicate spec_src with
  | Error e ->
      `Error (false, Printf.sprintf "--spec: at %d: %s" e.Pfsm.Parse.position
                e.Pfsm.Parse.message)
  | Ok spec -> (
      let source = In_channel.with_open_text file In_channel.input_all in
      match Minic.Parser.program source with
      | Error e ->
          `Error (false, Printf.sprintf "%s: line %d: %s" file e.Minic.Parser.line
                    e.Minic.Parser.message)
      | Ok funcs ->
          let refuted = ref 0 in
          List.iter
            (fun f ->
               Format.printf "%a@.@." Minic.Ast.pp_func f;
               match Minic.Extract.impl_predicate f ~object_var with
               | None ->
                   Format.printf
                     "%s: no extractable guard over %s (outside the fragment, or no \
                      dangerous operation)@.@."
                     f.Minic.Ast.name object_var
               | Some impl ->
                   Format.printf "extracted impl: %s@." (Pfsm.Predicate.to_string impl);
                   Format.printf "analyst spec  : %s@." (Pfsm.Predicate.to_string spec);
                   let pfsm =
                     Pfsm.Primitive.make ~name:(f.Minic.Ast.name ^ "/auto")
                       ~kind:Pfsm.Taxonomy.Content_attribute_check
                       ~activity:("dangerous operation in " ^ f.Minic.Ast.name)
                       ~spec ~impl
                   in
                   let low, high = ints in
                   let result =
                     Pfsm.Verify.verify pfsm (Pfsm.Verify.Int_range { low; high })
                   in
                   (match result with
                    | Pfsm.Verify.Refuted _ -> incr refuted
                    | _ -> ());
                   Format.printf "verification  : %a@.@." Pfsm.Verify.pp_result result)
            funcs;
          gate ~ok:(!refuted = 0)
            (Printf.sprintf "extract: %d refuted guard(s) in %s" !refuted file))

(* The abstract-interpretation linter: a mini-C file, or the built-in
   corpus checked against its ground-truth expectations. *)
let lint jobs store corpus file json arrays resume checkpoint stop_after trace
    metrics =
  with_jobs jobs @@ fun () ->
  with_store store @@ fun () ->
  with_obs ?trace ?metrics @@ fun () ->
  if corpus then begin
    if supervising resume checkpoint stop_after then begin
      let cp = checkpoint_of ~default:".dfsm-lint.checkpoint" resume checkpoint in
      let rows, report =
        Staticcheck.Linter.supervised_sweep ?checkpoint:cp ?stop_after
          ~parallel:true ()
      in
      let expected = List.length Minic.Corpus.all in
      sweep_finished cp report ~expected;
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [ ("sweep", Staticcheck.Linter.sweep_to_json rows);
                  ("run", Resilience.Run_report.to_json report) ]))
      else begin
        Format.printf "%a@." Staticcheck.Linter.pp_sweep rows;
        Format.printf "%a@." Resilience.Run_report.pp report
      end;
      gate
        ~ok:(Staticcheck.Linter.sweep_ok rows && Resilience.Run_report.ok report)
        "corpus sweep: expectation mismatch or quarantined variant"
    end
    else begin
      let rows = Staticcheck.Linter.corpus_sweep () in
      if json then
        print_endline (Json.to_string (Staticcheck.Linter.sweep_to_json rows))
      else Format.printf "%a@." Staticcheck.Linter.pp_sweep rows;
      gate ~ok:(Staticcheck.Linter.sweep_ok rows)
        "corpus sweep: expectation mismatch"
    end
  end
  else
    match file with
    | None -> `Error (true, "FILE is required unless --corpus is given")
    | Some file -> (
        let source = In_channel.with_open_text file In_channel.input_all in
        match Minic.Parser.program source with
        | Error e ->
            `Error (false, Printf.sprintf "%s: line %d: %s" file
                      e.Minic.Parser.line e.Minic.Parser.message)
        | Ok funcs ->
            let config =
              { Staticcheck.Absint.default_config with Staticcheck.Absint.arrays }
            in
            let reports = Staticcheck.Linter.lint_program ~config funcs in
            if json then
              print_endline
                (Json.to_string
                   (Json.List (List.map Staticcheck.Linter.report_to_json reports)))
            else
              List.iter
                (fun r -> Format.printf "%a@.@." Staticcheck.Linter.pp_report r)
                reports;
            let confirmed =
              List.concat_map
                (fun r ->
                   List.filter Staticcheck.Finding.is_confirmed
                     r.Staticcheck.Linter.findings)
                reports
            in
            gate ~ok:(confirmed = [])
              (Printf.sprintf "lint: %d confirmed finding(s) in %s"
                 (List.length confirmed) file))

let matrix () =
  Format.printf "%a@." Exploit.Matrix.pp ();
  let ok = Exploit.Matrix.section6_claims_hold () in
  Format.printf "section-6 claims hold: %b@." ok;
  gate ~ok "matrix: a section-6 claim failed"

(* Write every diagram the paper draws (and the attack graphs) as
   Graphviz files into a directory. *)
let export dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
    Format.printf "wrote %s@." path
  in
  List.iter
    (fun app -> write (app ^ ".dot") (Pfsm.Dot.of_model (model_of app)))
    apps;
  let fig2 =
    Pfsm.Primitive.make ~name:"pFSM" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"accept an index x"
      ~spec:(Pfsm.Predicate.between Pfsm.Predicate.Self ~low:0 ~high:100)
      ~impl:
        (Pfsm.Predicate.Cmp
           (Pfsm.Predicate.Le, Pfsm.Predicate.Self,
            Pfsm.Predicate.Lit (Pfsm.Value.Int 100)))
  in
  write "figure2_pfsm.dot" (Pfsm.Dot.of_primitive fig2);
  List.iter
    (fun app ->
       let model = model_of app in
       let report = Pfsm.Analysis.analyze model ~scenarios:(scenarios_of app) in
       write (app ^ "_attack_graph.dot")
         (Baselines.Attack_graph.to_dot (Baselines.Attack_graph.of_report report)))
    apps;
  Format.printf "render with: dot -Tsvg %s/sendmail.dot > sendmail.svg@." dir;
  `Ok 0

let baselines () =
  let app = Apps.Sendmail.setup () in
  let model = Apps.Sendmail.model app in
  let scenario = Apps.Sendmail.exploit_scenario app in
  (match Baselines.Markov.metf_of_model ~retry:0.2 model ~scenario with
   | Some e -> Format.printf "Sendmail METF (retry 0.2): %.1f effort units@." e
   | None -> Format.printf "Sendmail METF: infinite@.");
  let report =
    Pfsm.Analysis.analyze model ~scenarios:[ scenario; Apps.Sendmail.benign_scenario ]
  in
  let g = Baselines.Attack_graph.of_report report in
  Format.printf "%a@." Baselines.Attack_graph.pp g;
  print_string (Baselines.Attack_graph.to_dot g);
  `Ok 0

let faults jobs store smoke resume checkpoint stop_after trace metrics =
  with_jobs jobs @@ fun () ->
  with_store store @@ fun () ->
  with_obs ?trace ?metrics @@ fun () ->
  let plans = if smoke then Fault.Catalog.smoke else Fault.Catalog.all in
  let reports, run_report =
    if supervising resume checkpoint stop_after then begin
      let cp = checkpoint_of ~default:".dfsm-faults.checkpoint" resume checkpoint in
      let reports, report =
        Exploit.Fault_matrix.supervised_run ~plans ?checkpoint:cp ?stop_after
          ~parallel:true ()
      in
      sweep_finished cp report ~expected:(List.length plans);
      (reports, Some report)
    end
    else (Exploit.Fault_matrix.run ~plans (), None)
  in
  List.iter (Format.printf "%a@." Exploit.Fault_matrix.pp_report) reports;
  Format.printf "%a@." Exploit.Fault_matrix.pp_grid reports;
  (match run_report with
   | Some r -> Format.printf "%a@." Resilience.Run_report.pp r
   | None -> ());
  let benign = Exploit.Fault_matrix.all_benign_ok reports in
  let no_div = Exploit.Fault_matrix.no_divergence reports in
  let stable = Exploit.Fault_matrix.stable ~plans () in
  Format.printf "benign plans consistent: %b@." benign;
  Format.printf "no fail-open divergence: %b@." no_div;
  Format.printf "seed-stable verdicts:    %b@." stable;
  let supervised_ok =
    match run_report with Some r -> Resilience.Run_report.ok r | None -> true
  in
  gate
    ~ok:(benign && stable && supervised_ok)
    "fault matrix: benign-plan agreement or seed determinism violated"

let chaos jobs store seed json smoke soak disk trace metrics =
  with_jobs jobs @@ fun () ->
  with_store store @@ fun () ->
  with_obs ?trace ?metrics @@ fun () ->
  let plans = if smoke then Fault.Catalog.smoke else Fault.Catalog.all in
  if disk then begin
    let plans =
      if smoke then Fault.Catalog.disk_smoke else Fault.Catalog.disk
    in
    let report = Chaos.disk ~seed ~plans () in
    if json then print_endline (Chaos.disk_to_json report)
    else Format.printf "%a@." Chaos.pp_disk report;
    match Chaos.disk_violations report with
    | [] -> `Ok 0
    | vs ->
        List.iter (Printf.eprintf "chaos: %s\n") vs;
        Printf.eprintf "chaos: disk degradation contract violated\n%!";
        `Ok 1
  end
  else if soak then begin
    let report = Chaos.soak ~seed ~plans () in
    if json then print_endline (Chaos.soak_to_json report)
    else Format.printf "%a@." Chaos.pp_soak report;
    match Chaos.soak_violations report with
    | [] -> `Ok 0
    | vs ->
        List.iter (Printf.eprintf "chaos: %s\n") vs;
        Printf.eprintf "chaos: serve soak contract violated\n%!";
        `Ok 1
  end
  else begin
    let report = Chaos.run ~seed ~plans () in
    if json then print_endline (Chaos.to_json report)
    else Format.printf "%a@." Chaos.pp report;
    match Chaos.violations report with
    | [] -> `Ok 0
    | vs ->
        List.iter (Printf.eprintf "chaos: %s\n") vs;
        Printf.eprintf "chaos: supervision contract violated\n%!";
        `Ok 1
  end

(* ---- the server --------------------------------------------------- *)

(* [dfsm serve] — JSONL requests on stdin, JSONL responses on stdout
   (flushed per line), run summary repeated on stderr.  SIGTERM/SIGINT
   drain gracefully: stop admitting, finish everything queued, emit the
   summary line, exit per the contract (0 clean, 1 lost requests or an
   unclean drain).  The interrupt is CLI plumbing — [Serve.Server.run]
   only ever sees its source return [None]. *)
exception Drain_now

let serve jobs store capacity fuel max_line seed trace metrics =
  with_jobs jobs @@ fun () ->
  with_store store @@ fun () ->
  with_obs ?trace ?metrics @@ fun () ->
  let config =
    let d = Serve.Server.default_config in
    { d with
      Serve.Server.capacity;
      default_fuel = fuel;
      max_line;
      retry = { d.Serve.Server.retry with Resilience.Retry.seed } }
  in
  let stop = ref false in
  let in_read = ref false in
  (* Raising interrupts a blocked [input_line]; outside the read the
     flag alone suffices (the source checks it before the next line)
     and raising would tear a response mid-write. *)
  let on_signal _ = if !in_read then raise Drain_now else stop := true in
  List.iter
    (fun s ->
       try Sys.set_signal s (Sys.Signal_handle on_signal)
       with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  let source () =
    if !stop then None
    else begin
      in_read := true;
      let line =
        try In_channel.input_line In_channel.stdin with Drain_now ->
          stop := true;
          None
      in
      in_read := false;
      line
    end
  in
  let emit line =
    print_string line;
    print_newline ();
    flush stdout
  in
  let summary = Serve.Server.run ~config ~emit source in
  Format.eprintf "%a@." Serve.Server.pp_summary summary;
  gate
    ~ok:(summary.Serve.Server.drained && Serve.Server.accounted summary)
    "serve: lost requests or unclean drain"

(* Verify-and-repair for a result store.  Exit 0 iff the store ends
   clean (after repair when --repair is given), 1 when damage remains,
   2 when no store directory was named or it is unusable. *)
let fsck store dir repair json =
  match (match dir with Some d -> Some d | None -> store) with
  | None ->
      `Error (true, "a store directory is required: DIR or --store/DFSM_STORE")
  | Some dir ->
      if not (Sys.file_exists dir) then
        `Error (false, Printf.sprintf "%s: no such store" dir)
      else if not (Sys.is_directory dir) then
        `Error (false, Printf.sprintf "%s: not a directory" dir)
      else begin
        let disk = Store.Disk.open_ ~dir in
        let report = Store.Fsck.scan ~repair disk in
        Store.Disk.close disk;
        if json then
          print_endline (Json.to_string ~layout:Indented (Store.Fsck.to_json report))
        else Format.printf "%a@." Store.Fsck.pp report;
        gate
          ~ok:(Store.Fsck.clean report)
          (if repair then "fsck: damage could not be repaired"
           else "fsck: store is unclean (re-run with --repair)")
      end

(* Static TOCTTOU scan over declared step footprints, each finding
   confirmed or refuted by replaying only the flagged window under
   the scheduler.  Exit 1 iff a confirmed race exists. *)
let races jobs json por budget app trace metrics =
  with_jobs jobs @@ fun () ->
  with_obs ?trace ?metrics @@ fun () ->
  if budget < 1 then `Error (false, "--budget must be at least 1")
  else begin
    let report = Racecheck.Driver.analyze ~budget ~por ?app () in
    if json then print_endline (Racecheck.Driver.to_json report)
    else Format.printf "%a@." Racecheck.Driver.pp report;
    gate
      ~ok:(not (Racecheck.Driver.confirmed report))
      "races: confirmed TOCTTOU race(s) present"
  end

(* Streaming corpus classification: the Figure-1 distribution scaled
   to --total reports, generated chunk by chunk on the domain pool,
   spilled through the store as checksummed shards, per-chunk
   classification summaries cached so warm reruns recompute nothing,
   and merged in chunk-index order — byte-identical at every -j and
   invariant under --chunk.  Exit 1 iff the sweep loses reports or
   the classifier fails to beat the majority-class baseline. *)
let classify jobs store seed total chunk smoke json trace metrics =
  with_jobs jobs @@ fun () ->
  with_store store @@ fun () ->
  with_obs ?trace ?metrics @@ fun () ->
  let total = if smoke then 1500 else total in
  let chunk = if smoke then 128 else chunk in
  match Corpus.Pipeline.run ~seed ~total ~chunk () with
  | Error e -> `Error (false, "classify: " ^ Vulndb.Synth.error_to_string e)
  | Ok t ->
      if json then print_endline (Corpus.Pipeline.to_json t)
      else Format.printf "%a@?" Corpus.Pipeline.pp t;
      gate ~ok:(Corpus.Pipeline.ok t)
        "classify: lost reports or classifier below the majority baseline"

(* ---- cmdliner plumbing ------------------------------------------- *)

open Cmdliner

let app_arg =
  let doc =
    Printf.sprintf "Application to analyse: %s." (String.concat ", " apps)
  in
  Arg.(required & pos 0 (some (enum (List.map (fun a -> (a, a)) apps))) None
       & info [] ~docv:"APP" ~doc)

let seed_arg =
  Arg.(value & opt int 20021130 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let jobs_arg =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for parallel batch paths (default: \
               $(b,DFSM_JOBS), else the hardware thread count). Output is \
               byte-identical for every N; values < 1 are a usage error.")

let store_arg =
  let env =
    Cmd.Env.info "DFSM_STORE"
      ~doc:"Default directory for $(b,--store); the flag wins."
  in
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR" ~env
         ~doc:"Persist analysis results in a crash-consistent store at DIR \
               (created if absent): verified records are served instead of \
               recomputed — across processes — and corruption, version skew \
               or write failure silently degrades to recompute. Inspect with \
               $(b,dfsm fsck).")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
         ~doc:"Checkpoint the sweep: journal each completed item, skip items \
               a previous interrupted run already finished, and remove the \
               journal when the sweep completes cleanly.")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Journal file for $(b,--resume) (also implies it).")

let stop_after_arg =
  Arg.(value & opt (some int) None
       & info [ "stop-after" ] ~docv:"N"
         ~doc:"Simulate an interruption: stop dead after N items (testing aid).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a deterministic virtual-time trace of the run: JSONL when \
               FILE ends in .jsonl, Chrome trace_event JSON otherwise. \
               Byte-identical for a given seed at every $(b,-j).")

let metrics_file_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the metrics snapshot of the run (counters, gauges, \
               histograms) as JSON.")

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Figure-1 database breakdown")
    Term.(ret (const stats $ jobs_arg $ seed_arg))

let analyze_cmd =
  Cmd.v (Cmd.info "analyze" ~doc:"Print an application's FSM model and analysis")
    Term.(ret (const analyze $ app_arg))

let dot_cmd =
  Cmd.v (Cmd.info "dot" ~doc:"Emit the model as Graphviz dot")
    Term.(ret (const dot $ app_arg))

let exploit_cmd_ =
  Cmd.v (Cmd.info "exploit" ~doc:"Run every canned exploit against every configuration")
    Term.(ret (const exploit_cmd $ jobs_arg $ store_arg $ resume_arg
               $ checkpoint_arg $ stop_after_arg $ trace_arg
               $ metrics_file_arg))

let consistency_cmd =
  Cmd.v (Cmd.info "consistency" ~doc:"Cross-check model verdicts against simulations")
    Term.(ret (const consistency $ const ()))

let discover_cmd =
  Cmd.v (Cmd.info "discover" ~doc:"Hunt for hidden IMPL_ACPT paths (rediscovers #6255)")
    Term.(ret (const discover $ jobs_arg $ app_arg))

let lemma_cmd =
  Cmd.v (Cmd.info "lemma" ~doc:"Validate the foiling lemma in model and simulation")
    Term.(ret (const lemma $ const ()))

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Structural metrics of every model (Observations 1-3), per-pFSM \
             transition coverage, and the runtime metrics snapshot")
    Term.(ret (const metrics $ jobs_arg $ store_arg $ json_flag))

let ablation_cmd =
  Cmd.v (Cmd.info "ablation" ~doc:"ASLR ablation over the four memory exploits")
    Term.(ret (const ablation $ const ()))

let csv_cmd =
  Cmd.v (Cmd.info "csv" ~doc:"Dump the synthetic database as CSV")
    Term.(ret (const csv $ jobs_arg $ seed_arg))

let trend_cmd =
  Cmd.v (Cmd.info "trend" ~doc:"Per-year report series")
    Term.(ret (const trend $ jobs_arg $ seed_arg))

let spec_arg =
  Arg.(required & opt (some string) None
       & info [ "spec" ] ~docv:"PRED" ~doc:"Specification accept-predicate.")

let impl_arg =
  Arg.(required & opt (some string) None
       & info [ "impl" ] ~docv:"PRED" ~doc:"Implementation accept-predicate.")

let ints_arg =
  Arg.(value & opt (some (pair ~sep:':' int int)) None
       & info [ "ints" ] ~docv:"LOW:HIGH" ~doc:"Integer domain to verify over.")

let strings_arg =
  Arg.(value & opt (list string) [] & info [ "strings" ] ~docv:"S1,S2,..."
       ~doc:"String domain to verify over.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify impl => spec for user-supplied predicates over a finite domain")
    Term.(ret (const check $ spec_arg $ impl_arg $ ints_arg $ strings_arg))

let baselines_cmd =
  Cmd.v
    (Cmd.info "baselines"
       ~doc:"Markov METF and attack-graph baselines on the Sendmail model")
    Term.(ret (const baselines $ const ()))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
       ~doc:"Mini-C source file.")

let object_arg =
  Arg.(required & opt (some string) None
       & info [ "object" ] ~docv:"VAR" ~doc:"The variable the predicate speaks about.")

let extract_ints_arg =
  Arg.(value & opt (pair ~sep:':' int int) (-2048, 2048)
       & info [ "ints" ] ~docv:"LOW:HIGH" ~doc:"Integer domain to verify over.")

let dir_arg =
  Arg.(value & opt string "diagrams" & info [ "out" ] ~docv:"DIR"
       ~doc:"Output directory for the .dot files.")

let export_cmd =
  Cmd.v
    (Cmd.info "export" ~doc:"Write every model and attack graph as Graphviz files")
    Term.(ret (const export $ dir_arg))

let matrix_cmd =
  Cmd.v
    (Cmd.info "matrix" ~doc:"Protection x vulnerability matrix (Section 6)")
    Term.(ret (const matrix $ const ()))

let smoke_arg =
  Arg.(value & flag
       & info [ "smoke" ] ~doc:"Run only the three-plan CI subset of the catalog.")

let faults_cmd =
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Re-run the consistency matrix and lemma under every fault plan")
    Term.(ret (const faults $ jobs_arg $ store_arg $ smoke_arg $ resume_arg
               $ checkpoint_arg $ stop_after_arg $ trace_arg
               $ metrics_file_arg))

let soak_flag =
  Arg.(value & flag
       & info [ "soak" ]
         ~doc:"Replay the fault catalog against a live $(b,dfsm serve) loop \
               instead of the batch pipeline, asserting zero lost requests \
               and a clean drain under every plan.")

let disk_flag =
  Arg.(value & flag
       & info [ "disk" ]
         ~doc:"Replay the durability-fault catalog (torn writes, bit flips, \
               ENOSPC/EACCES, crash-before-rename) against the persistent \
               result store instead of the batch pipeline, asserting \
               byte-identical analysis results under every fault and a clean \
               store after $(b,fsck --repair).")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Replay every fault plan against the supervised pipeline and check \
             the resilience contract: no lost items, bounded retries, \
             deterministic reports")
    Term.(ret (const chaos $ jobs_arg $ store_arg $ seed_arg $ json_flag
               $ smoke_arg $ soak_flag $ disk_flag $ trace_arg
               $ metrics_file_arg))

let capacity_arg =
  Arg.(value & opt int Serve.Server.default_config.Serve.Server.capacity
       & info [ "capacity" ] ~docv:"N"
         ~doc:"Admission-queue bound: work requests beyond N queued between \
               scheduling points are shed with a typed $(b,overloaded) \
               response, never buffered unboundedly.")

let fuel_arg =
  Arg.(value & opt int Serve.Server.default_config.Serve.Server.default_fuel
       & info [ "fuel" ] ~docv:"N"
         ~doc:"Default per-attempt handler fuel; a request's $(b,fuel) field \
               overrides it.  Exhaustion is a typed $(b,deadline) response.")

let max_line_arg =
  Arg.(value & opt int Serve.Server.default_config.Serve.Server.max_line
       & info [ "max-line" ] ~docv:"BYTES"
         ~doc:"Request lines longer than this get a typed error response and \
               are never admitted.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running analysis service: JSONL requests on stdin, JSONL \
             responses on stdout.  Bounded admission with typed load-shedding, \
             per-request supervision (retry, per-class circuit breakers, fuel \
             deadlines, quarantine), graceful drain on EOF, shutdown request, \
             SIGTERM or SIGINT.  The response stream is byte-identical at \
             every $(b,-j).")
    Term.(ret (const serve $ jobs_arg $ store_arg $ capacity_arg $ fuel_arg
               $ max_line_arg $ seed_arg $ trace_arg $ metrics_file_arg))

let race_app_arg =
  let doc =
    Printf.sprintf "Restrict the analysis to one application's instances: %s."
      (String.concat ", " Racecheck.Instances.apps)
  in
  Arg.(value
       & pos 0
           (some (enum (List.map (fun a -> (a, a)) Racecheck.Instances.apps)))
           None
       & info [] ~docv:"APP" ~doc)

let por_flag =
  Arg.(value & flag
       & info [ "por" ]
         ~doc:"Confirm findings over sleep-set partial-order-reduced \
               schedules: one representative per Mazurkiewicz trace, same \
               verdicts, far fewer replays — complete where plain \
               enumeration exhausts the budget.")

let budget_arg =
  Arg.(value & opt int Racecheck.Driver.default_budget
       & info [ "budget" ] ~docv:"N"
         ~doc:"Replayed schedules per finding before reporting \
               $(b,unresolved).")

let races_cmd =
  Cmd.v
    (Cmd.info "races"
       ~doc:"Static TOCTTOU detection over step effect footprints, with every \
             finding confirmed or refuted by scheduler replay of the flagged \
             check/use window.  Exit 1 iff a race is confirmed.")
    Term.(ret (const races $ jobs_arg $ json_flag $ por_flag $ budget_arg
               $ race_app_arg $ trace_arg $ metrics_file_arg))

let extract_cmd =
  Cmd.v
    (Cmd.info "extract"
       ~doc:"Extract implementation predicates from mini-C source and verify them")
    Term.(ret (const extract $ file_arg $ object_arg $ spec_arg $ extract_ints_arg))

let corpus_flag =
  Arg.(value & flag
       & info [ "corpus" ]
         ~doc:"Lint the built-in vulnerability corpus against its expectations; \
               exit nonzero on any missed vulnerable or flagged fixed variant.")

let lint_file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
       ~doc:"Mini-C source file to lint.")

let lint_arrays_arg =
  Arg.(value & opt_all (pair ~sep:':' string int) []
       & info [ "array" ] ~docv:"NAME:COUNT"
         ~doc:"Register a global array and its element count (repeatable).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Abstract-interpretation linter with interpreter-validated findings")
    Term.(ret (const lint $ jobs_arg $ store_arg $ corpus_flag $ lint_file_arg
               $ json_flag $ lint_arrays_arg $ resume_arg $ checkpoint_arg
               $ stop_after_arg $ trace_arg $ metrics_file_arg))

let repair_flag =
  Arg.(value & flag
       & info [ "repair" ]
         ~doc:"Remove every unsound file (bad records, orphan tmps, strays) \
               and compact the manifest to exactly the keys that verify; \
               evicted results are recomputed by the next store-backed run.")

let fsck_dir_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"DIR"
         ~doc:"Store directory to check (default: $(b,--store) / \
               $(b,DFSM_STORE)).")

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Verify a result store offline: classify every record (ok, torn, \
             checksum-mismatch, stale-version, orphan-tmp), check the \
             manifest, and optionally repair.  Exit 0 iff the store ends \
             clean.")
    Term.(ret (const fsck $ store_arg $ fsck_dir_arg $ repair_flag $ json_flag))

let total_arg =
  Arg.(value & opt int Vulndb.Synth.legacy_total
       & info [ "total" ] ~docv:"N"
         ~doc:"Corpus size: the Figure-1 category distribution scaled to N \
               reports (largest-remainder apportionment; default the paper's \
               5925).  Invalid or id-space-overflowing totals are typed \
               usage errors, not crashes.")

let chunk_arg =
  Arg.(value & opt int 4096
       & info [ "chunk" ] ~docv:"N"
         ~doc:"Reports per generated chunk (the streaming granule and the \
               on-disk shard size; the result is invariant under it).")

let classify_smoke_arg =
  Arg.(value & flag
       & info [ "smoke" ]
         ~doc:"CI subset: a reduced corpus (1500 reports, 128-report \
               chunks), same contract.")

let classify_cmd =
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Stream a scaled Figure-1 corpus through the nearest-centroid \
             classifier: chunked generation on the domain pool, checksummed \
             store spill, cached per-chunk summaries (warm reruns recompute \
             nothing), deterministic merge.  Exit 1 iff reports are lost or \
             accuracy drops below the majority-class baseline.")
    Term.(ret (const classify $ jobs_arg $ store_arg $ seed_arg $ total_arg
               $ chunk_arg $ classify_smoke_arg $ json_flag $ trace_arg
               $ metrics_file_arg))

let main =
  Cmd.group
    (Cmd.info "dfsm" ~version:"1.0.0"
       ~doc:"Data-driven FSM analysis of security vulnerabilities (DSN 2003)")
    [ stats_cmd; analyze_cmd; dot_cmd; exploit_cmd_; consistency_cmd; discover_cmd;
      lemma_cmd; metrics_cmd; ablation_cmd; csv_cmd; trend_cmd; check_cmd;
      baselines_cmd; extract_cmd; lint_cmd; matrix_cmd; export_cmd; faults_cmd;
      chaos_cmd; serve_cmd; races_cmd; fsck_cmd; classify_cmd ]

(* The exit-code contract: cmdliner's usage errors (unknown command,
   unknown application, bad flags) land on 2; term-level failures
   ([`Error] results, e.g. an unreadable file) do too; analysis
   verdicts come back as the integer the command returned. *)
let () =
  match Cmd.eval_value main with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
