(* The traced run.  For each workload the verb is rebuilt in-process
   from its layers' public entry points, at the same seed and a quarter
   of the size, with a bench-owned span around every call into a
   layer; nothing in lib/ is instrumented.  The composition must give
   the same result as the verb's own entry point on the same input,
   and is checked against the verb's entry point (Pipeline.run,
   Server.run_script, Chaos.run) in every pass: with spans off, and
   with spans on after resetting Obs.Metrics.

   Per-layer times are summed span durations over every domain (busy
   time, so with two jobs they can add up to twice the wall time);
   counts come from the Obs.Metrics snapshot taken after a traced pass
   or from the bench's own calls. *)

module Synth = Vulndb.Synth
module Classifier = Corpus.Classifier
module Pipeline = Corpus.Pipeline
module Supervisor = Resilience.Supervisor
module Run_report = Resilience.Run_report
module SJ = Serve.Json

let now = Unix.gettimeofday

(* Par's trace hooks, which keep the par.* counters, live in
   Obs.Trace: make sure it is linked in. *)
let () = ignore (Obs.Trace.enabled ())

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* ---- the bench's own tallies (thread-safe) ------------------------ *)

let tally : (string, float) Hashtbl.t = Hashtbl.create 16
let tally_lock = Mutex.create ()

let add name v =
  Mutex.lock tally_lock;
  Hashtbl.replace tally name (v +. Option.value ~default:0. (Hashtbl.find_opt tally name));
  Mutex.unlock tally_lock

let tallied name = Option.value ~default:0. (Hashtbl.find_opt tally name)

(* ---- shared wrappers ------------------------------------------------ *)

(* Par.map with a "par.map" span on the submitting domain and a
   "par.item" span per item, parented to it on whichever domain ran
   the item. *)
let par_map f xs =
  Span.with_ "par.map" (fun () ->
      let map_span = Span.current () in
      Par.map (fun x -> Span.within map_span (fun () -> Span.with_ "par.item" (fun () -> f x))) xs)

(* Store.Handle.cached, rebuilt from Store.Disk and Store.Codec so the
   read and the write each get a span. *)
let cached ~tag ~key compute =
  match Store.Handle.ambient () with
  | None -> compute ()
  | Some disk -> (
      match
        Span.with_ "store.find" (fun () ->
            Option.bind (Store.Disk.find disk ~key) (Store.Codec.of_payload ~tag))
      with
      | Some v -> v
      | None ->
          let v = compute () in
          Span.with_ "store.put" (fun () ->
              let payload = Store.Codec.to_payload ~tag v in
              add "store.bytes" (float_of_int (String.length payload));
              Store.Disk.put disk ~key ~payload);
          v)

(* A fresh store installed for [f]. *)
let with_fresh_store env f =
  let dir = Workload.fresh_dir env "traced-store" in
  Store.Handle.with_store (Some (Store.Disk.open_ ~dir)) f

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Synth.error_to_string e)

(* ---- classify-cold -------------------------------------------------- *)

let category_index =
  let cats = Array.of_list Vulndb.Category.all in
  fun c ->
    let rec find i = if Vulndb.Category.equal cats.(i) c then i else find (i + 1) in
    find 0

let classify_replica ~seed ~total ~chunk =
  let plan = get_ok "plan" (Span.with_ "synth.plan" (fun () -> Synth.plan ~total ())) in
  let model =
    get_ok "centroids" (Span.with_ "corpus.centroids" (fun () -> Pipeline.centroids ~seed))
  in
  let pd = Synth.plan_digest plan and md = Classifier.model_digest model in
  let n = Synth.chunk_count plan ~chunk in
  let summary i =
    let key tier =
      Digest.to_hex
        (Digest.string (Printf.sprintf "e2e-%s|%s|%d|%d|%d|%s" tier pd seed chunk i md))
    in
    cached ~tag:"e2e-summary" ~key:(key "summary") (fun () ->
        let reports =
          cached ~tag:"e2e-chunk" ~key:(key "chunk") (fun () ->
              Span.with_ "synth" (fun () ->
                  let rs = Synth.chunk_reports plan ~seed ~chunk ~index:i in
                  add "synth.reports" (float_of_int (List.length rs));
                  rs))
        in
        let labelled =
          Span.with_ "corpus.features" (fun () ->
              List.map
                (fun (r : Vulndb.Report.t) ->
                  (category_index r.Vulndb.Report.category, Corpus.Features.of_report r))
                reports)
        in
        Span.with_ "corpus.classify" (fun () ->
            let ncat = Classifier.ncat in
            let counts = Array.make (ncat * ncat) 0 in
            List.iter
              (fun (truth, v) ->
                let k = (truth * ncat) + Classifier.predict model v in
                counts.(k) <- counts.(k) + 1)
              labelled;
            { Classifier.n = List.length labelled; counts }))
  in
  let confusion =
    Array.fold_left Classifier.confusion_merge Classifier.confusion_empty
      (par_map summary (Array.init n Fun.id))
  in
  Pipeline.to_json
    { Pipeline.total; planned = Synth.plan_size plan; chunk; chunks = n; confusion;
      accuracy = Classifier.accuracy confusion;
      baseline = Classifier.majority_share confusion }

(* ---- serve-* -------------------------------------------------------- *)

(* Exploit.Driver groups are keyed by display name. *)
let row_group = function
  | "sendmail" -> "Sendmail #3163"
  | "nullhttpd" -> "NULL HTTPD"
  | "xterm" -> "xterm race"
  | "rwall" -> "Solaris rwall"
  | "iis" -> "IIS decode"
  | "ghttpd" -> "GHTTPD #5960"
  | "rpcstatd" -> "rpc.statd #1480"
  | app -> invalid_arg ("unknown application " ^ app)

(* Under a store a lint is a store read unless the linter actually
   ran, which the staticcheck.functions counter shows; the server
   replays sequentially there, so the counter is this call's alone. *)
let lint_call ~req label func =
  let config = Staticcheck.Linter.corpus_config in
  if Store.Handle.get () = None then
    Span.with_ ~req "staticcheck.lint" (fun () ->
        Staticcheck.Linter.lint_cached ~config label func)
  else begin
    let t0 = now () and before = counter "staticcheck.functions" in
    let r = Staticcheck.Linter.lint_cached ~config label func in
    Span.record ~req
      (if counter "staticcheck.functions" > before then "staticcheck.lint" else "store.find")
      t0 (now ());
    r
  end

(* One request's handler: the payload Serve.Handlers builds and the
   fuel it spends, from the same layer calls. *)
let handle ~id (work : Serve.Protocol.work) =
  Span.with_ ~req:id ("serve.handler." ^ Serve.Protocol.work_class work) @@ fun () ->
  match work with
  | Serve.Protocol.Analyze { app } ->
      let model, scenarios =
        Span.with_ ~req:id "serve.model_build" (fun () ->
            (Serve.Handlers.model_of app, Serve.Handlers.scenarios_of app))
      in
      let report =
        Span.with_ ~req:id "pfsm.analyze" (fun () ->
            Pfsm.Analysis.analyze ~memo:true model ~scenarios)
      in
      let hidden =
        List.filter_map
          (fun (f : Pfsm.Analysis.pfsm_finding) ->
            if f.hidden_hits = 0 then None
            else
              Some (SJ.Obj [ ("operation", SJ.Str f.operation); ("hits", SJ.Int f.hidden_hits) ]))
          report.Pfsm.Analysis.findings
      in
      ( SJ.Obj
          [ ("app", SJ.Str app);
            ("scenarios", SJ.Int report.Pfsm.Analysis.scenarios_run);
            ("hidden", SJ.List hidden) ],
        List.length scenarios )
  | Serve.Protocol.Lint { target } ->
      let funcs =
        if target = "corpus" then Minic.Corpus.all
        else [ (target, List.assoc target Minic.Corpus.all) ]
      in
      let reports = List.map (fun (label, f) -> lint_call ~req:id label f) funcs in
      let findings = List.concat_map (fun r -> r.Staticcheck.Linter.findings) reports in
      ( SJ.Obj
          [ ("target", SJ.Str target);
            ("functions", SJ.Int (List.length reports));
            ("findings", SJ.Int (List.length findings));
            ("confirmed",
             SJ.Int (List.length (List.filter Staticcheck.Finding.is_confirmed findings))) ],
        List.length funcs )
  | Serve.Protocol.Exploit { app } ->
      let rows =
        Span.with_ ~req:id "exploit.rows"
          (List.assoc (row_group app) Exploit.Driver.app_row_groups)
      in
      add "exploit.rows" (float_of_int (List.length rows));
      ( SJ.Obj
          [ ("app", SJ.Str app);
            ("rows", SJ.Int (List.length rows));
            ("ok", SJ.Bool (Exploit.Driver.rows_ok rows)) ],
        1 + List.length rows )
  | Serve.Protocol.Chaos _ | Serve.Protocol.Boom _ ->
      invalid_arg "not in the benchmark's request mix"

(* Serve.Server.run's path for a fault-free script: parse and admit
   each line, speculate the batch on the pool (skipped under a store),
   then replay in admission order on the virtual clock, rendering and
   emitting each response.  Returns the response lines and a line of
   admission totals. *)
let serve_replica batches =
  let out = ref [] and vt = ref 0 and line_no = ref 0 and admitted = ref 0 in
  let speculate = Store.Handle.get () = None in
  List.iter
    (fun batch ->
      Span.with_ "bench.batch" (fun () ->
          let t_batch = now () in
          let pending =
            List.map
              (fun line ->
                incr line_no;
                let line_id = Printf.sprintf "line:%d" !line_no in
                match Span.with_ "serve.parse" (fun () -> Serve.Protocol.parse ~line_id line) with
                | Ok (Serve.Protocol.Work { id; work; _ }) ->
                    incr vt;
                    incr admitted;
                    (id, work, !vt)
                | _ -> failwith "the benchmark script holds only work requests")
              batch
          in
          incr line_no (* the flush line *);
          let timed_handle (id, work, _) =
            let t0 = now () in
            let r = handle ~id work in
            (r, now () -. t0)
          in
          let speculated =
            if speculate then par_map timed_handle (Array.of_list pending) else [||]
          in
          Span.with_ "serve.replay" (fun () ->
              List.iteri
                (fun i ((id, _, arrived) as p) ->
                  incr vt;
                  let (payload, spent), handler_s =
                    if speculate then speculated.(i) else timed_handle p
                  in
                  vt := !vt + spent;
                  let line =
                    Span.with_ ~req:id "serve.render" (fun () ->
                        Serve.Protocol.render
                          (Serve.Protocol.ok ~id ~latency:(!vt - arrived) ~attempts:1 payload))
                  in
                  Span.with_ ~req:id "serve.emit" (fun () -> out := line :: !out);
                  add "serve.queue_wait_s" (now () -. t_batch -. handler_s))
                pending);
          add "serve.batches" 1.))
    batches;
  List.rev !out
  @ [ Printf.sprintf "admitted %d, batches %d" !admitted (List.length batches) ]

let serve_verb lines =
  let out, summary = Serve.Server.run_script lines in
  List.filteri (fun i _ -> i < List.length out - 1) out
  @ [ Printf.sprintf "admitted %d, batches %d" summary.Serve.Server.admitted
        summary.Serve.Server.batches ]

(* Wire lines for a list of batches: ids [prefix]1.., a flush after
   each batch. *)
let wire ~prefix batches =
  let n = ref 0 in
  List.map
    (List.map (fun r ->
         incr n;
         Check.request_line ~id:(Printf.sprintf "%s%d" prefix !n) r))
    batches

let with_flushes batches = List.concat_map (fun b -> b @ [ Workload.flush_line ]) batches

(* ---- chaos-sweep ---------------------------------------------------- *)

(* Chaos's matrix leg: one item per application plus the lemma. *)
let matrix_items () =
  List.map
    (fun (app, entries) ->
      { Supervisor.id = "matrix:" ^ app;
        resource = app;
        work =
          (fun () ->
            Span.with_ "exploit.consistency" (fun () ->
                let n = List.length (entries ()) in
                add "exploit.rows" (float_of_int n);
                n)) })
    Exploit.Consistency.app_groups
  @ [ { Supervisor.id = "matrix:lemma";
        resource = "lemma";
        work =
          (fun () ->
            Span.with_ "exploit.lemma" (fun () ->
                if Exploit.Protection.lemma_holds () then 1
                else raise (Resilience.Quarantine.Reject "protection lemma broken"))) } ]

let chaos_plan ~seed ~csv (plan : Fault.Plan.t) =
  let base = Supervisor.default_config in
  let config =
    { base with
      Supervisor.retry =
        { base.Supervisor.retry with
          Resilience.Retry.seed = seed lxor Hashtbl.hash plan.Fault.Plan.name } }
  in
  let legs, events =
    Fault.Hooks.run plan (fun () ->
        let matrix =
          Span.with_ "chaos.matrix" (fun () ->
              Supervisor.run ~label:"chaos-matrix" ~config (matrix_items ()))
        in
        let _, lint =
          Span.with_ "chaos.lint" (fun () ->
              Staticcheck.Linter.supervised_sweep ~supervise:config ())
        in
        let ingest =
          Span.with_ "chaos.ingest" (fun () ->
              match Resilience.Ingest.csv ~label:"chaos-ingest" ~config csv with
              | Ok o -> Chaos.Ran o.Resilience.Ingest.report
              | Error e ->
                  Chaos.Failed { stage = "ingest"; detail = Vulndb.Csv.error_to_string e })
        in
        [ { Chaos.leg_name = "matrix";
            expected_items = List.length Exploit.Consistency.app_groups + 1;
            outcome = Chaos.Ran matrix.Supervisor.report };
          { leg_name = "lint"; expected_items = List.length Minic.Corpus.all;
            outcome = Chaos.Ran lint };
          { leg_name = "ingest";
            expected_items = Vulndb.Database.size (Vulndb.Seed_data.database ());
            outcome = ingest } ])
  in
  { Chaos.plan; events = List.length events; legs }

let tally_reports runs =
  List.iter
    (fun (pr : Chaos.plan_run) ->
      List.iter
        (fun (leg : Chaos.leg) ->
          match leg.outcome with
          | Chaos.Failed _ -> ()
          | Chaos.Ran report ->
              List.iter
                (fun (it : Run_report.item) ->
                  add "resilience.items" 1.;
                  match it.outcome with
                  | Run_report.Completed { attempts } ->
                      add "resilience.completed" 1.;
                      add "resilience.attempts" (float_of_int attempts)
                  | Run_report.Quarantined { attempts; _ } ->
                      add "resilience.attempts" (float_of_int attempts))
                report.Run_report.items)
        pr.legs)
    runs

let chaos_replica ~csv ~seed =
  Pfsm.Analysis.memo_reset ();
  let memo_counts () =
    (counter "pfsm.memo.lookups", counter "pfsm.memo.hits", counter "pfsm.memo.misses")
  in
  let l0, h0, m0 = memo_counts () in
  let runs = Array.to_list (par_map (chaos_plan ~seed ~csv) (Array.of_list Fault.Catalog.all)) in
  let l1, h1, m1 = memo_counts () in
  tally_reports runs;
  Chaos.to_json
    { Chaos.seed;
      retry_max = Supervisor.default_config.Supervisor.retry.Resilience.Retry.max_attempts;
      runs;
      memo = { Pfsm.Analysis.lookups = l1 - l0; hits = h1 - h0; misses = m1 - m0 } }

let median l = (Stat.summarize l).Stat.median

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* The three chaos legs supervised against the same legs run raw,
   both under the benign plan, in alternating pairs. *)
let resilience_overhead_pct ~csv =
  let legs supervised () =
    Fault.Hooks.run Fault.Catalog.none (fun () ->
        if supervised then begin
          ignore (Supervisor.run ~label:"chaos-matrix" (matrix_items ()));
          ignore (Staticcheck.Linter.supervised_sweep ());
          ignore (Resilience.Ingest.csv ~label:"chaos-ingest" csv)
        end
        else begin
          List.iter (fun it -> ignore (it.Supervisor.work ())) (matrix_items ());
          ignore (Staticcheck.Linter.corpus_sweep ());
          ignore (Vulndb.Csv.parse csv)
        end)
  in
  let secs f = snd (timed f) in
  ignore (secs (legs true));
  ignore (secs (legs false));
  let pairs = List.init 7 (fun _ -> (secs (legs true), secs (legs false))) in
  let sup = median (List.map fst pairs) and raw = median (List.map snd pairs) in
  100. *. (sup -. raw) /. raw

(* ---- running a composition ------------------------------------------ *)

type composition = {
  around : (unit -> unit) -> unit;  (* set-up and teardown around everything *)
  verb : unit -> string list;
  replica : unit -> string list;
  extra : unit -> (string * float) list;  (* measured after the passes *)
}

let compositions env (sz : Workload.sizes) =
  let open Workload in
  let classify () =
    let seeds = List.init sz.traced.classify_runs (classify_seed env) in
    let total = sz.classify_total and chunk = 4096 in
    {       around = (fun k -> k ());
      verb =
        (fun () ->
          List.map
            (fun seed ->
              with_fresh_store env (fun () ->
                  Pipeline.to_json (get_ok "classify" (Pipeline.run ~seed ~total ~chunk ()))))
            seeds);
      replica =
        (fun () ->
          List.map
            (fun seed ->
              with_fresh_store env (fun () ->
                  Span.with_ "bench.classify" (fun () -> classify_replica ~seed ~total ~chunk)))
            seeds);
      extra = (fun () -> []) }
  in
  let serve ~store () =
    let batches = serve_script env.expected ~seed:env.seed ~batches:sz.traced.serve_batches in
    let script = wire ~prefix:"r" batches in
    let warmup = with_flushes (wire ~prefix:"w" (warmup_batches env.expected)) in
    {       (* set-up mirrors the end-to-end workload's: one pass over the
         distinct requests, which primes the store under serve-store *)
      around =
        (fun k ->
          let run () = ignore (Serve.Server.run_script warmup); k () in
          if store then with_fresh_store env run else run ());
      verb = (fun () -> serve_verb (with_flushes script));
      replica = (fun () -> Span.with_ "bench.serve" (fun () -> serve_replica script));
      extra = (fun () -> []) }
  in
  let chaos () =
    let seeds = List.init sz.traced.chaos_runs (chaos_seed env) in
    let csv = Vulndb.Csv.of_database (Vulndb.Seed_data.database ()) in
    {       around = (fun k -> k ());
      verb = (fun () -> List.map (fun seed -> Chaos.to_json (Chaos.run ~seed ())) seeds);
      replica =
        (fun () ->
          List.map
            (fun seed -> Span.with_ "bench.chaos" (fun () -> chaos_replica ~csv ~seed))
            seeds);
      extra = (fun () -> [ ("resilience.overhead_pct", resilience_overhead_pct ~csv) ]) }
  in
  function
  | "classify-cold" -> classify ()
  | "serve-mixed" -> serve ~store:false ()
  | "serve-store" -> serve ~store:true ()
  | "chaos-sweep" -> chaos ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- per-layer metrics ---------------------------------------------- *)

(* Every per-layer metric with its unit; README.md says which
   end-to-end metric each should move. *)
let layer_metrics =
  [ ("par.maps", "count"); ("par.items", "count"); ("par.busy_ms", "ms");
    ("par.wall_ms", "ms"); ("par.util", "ratio"); ("par.tail_ms", "ms");
    ("synth.ms", "ms"); ("synth.reports", "count");
    ("corpus.features_ms", "ms"); ("corpus.classify_ms", "ms");
    ("corpus.centroids_ms", "ms");
    ("store.find_ms", "ms"); ("store.put_ms", "ms"); ("store.hits", "count");
    ("store.misses", "count"); ("store.writes", "count"); ("store.hit_ratio", "ratio");
    ("store.mb_written", "MB"); ("store.failures", "count");
    ("pfsm.analyze_ms", "ms"); ("pfsm.memo.lookups", "count");
    ("pfsm.memo.hit_ratio", "ratio");
    ("staticcheck.lint_ms", "ms"); ("staticcheck.functions", "count");
    ("exploit.ms", "ms"); ("exploit.rows", "count");
    ("serve.parse_ms", "ms"); ("serve.render_ms", "ms"); ("serve.model_build_ms", "ms");
    ("serve.handler_ms.analyze", "ms"); ("serve.handler_ms.lint", "ms");
    ("serve.handler_ms.exploit", "ms"); ("serve.replay_ms", "ms");
    ("serve.queue_wait_ms", "ms"); ("serve.batches", "count");
    ("resilience.items", "count"); ("resilience.attempts", "count");
    ("resilience.useful_ratio", "ratio"); ("resilience.breaker_trips", "count");
    ("resilience.quarantined", "count"); ("resilience.overhead_pct", "%");
    ("chaos.matrix_ms", "ms"); ("chaos.lint_ms", "ms"); ("chaos.ingest_ms", "ms");
    ("fault.injected", "count");
    ("trace.overhead_pct", "%"); ("trace.unattributed_pct", "%");
    ("trace.replica_gap_pct", "%") ]

let ratio a b = if b = 0. then 0. else a /. b

let derive_metrics ~jobs ~spans ~counts ~extra ~verb_s ~plain_s ~traced_s =
  let with_self = Span.self_times spans in
  let sum_by pred = List.fold_left (fun acc (s, self) -> acc +. pred s self) 0. with_self in
  let total_ms names =
    1000. *. sum_by (fun s _ -> if List.mem s.Span.name names then Span.duration s else 0.)
  in
  let self_ms name = 1000. *. sum_by (fun s self -> if s.Span.name = name then self else 0.) in
  let count name = float_of_int (Option.value ~default:0 (List.assoc_opt name counts)) in
  (* per map: wall minus the busiest domain's item time *)
  let tail_ms =
    List.fold_left
      (fun acc (m : Span.t) ->
        if m.name <> "par.map" then acc
        else begin
          let per_dom = Hashtbl.create 4 in
          List.iter
            (fun (s : Span.t) ->
              if s.parent = m.id && s.name = "par.item" then
                Hashtbl.replace per_dom s.dom
                  (Span.duration s +. Option.value ~default:0. (Hashtbl.find_opt per_dom s.dom)))
            spans;
          let busiest = Hashtbl.fold (fun _ v acc -> Float.max v acc) per_dom 0. in
          acc +. (1000. *. (Span.duration m -. busiest))
        end)
      0. spans
  in
  let roots_s = sum_by (fun s _ -> if s.Span.parent < 0 then Span.duration s else 0.) in
  let glue_s =
    sum_by (fun s self -> if String.starts_with ~prefix:"bench." s.Span.name then self else 0.)
  in
  let busy = total_ms [ "par.item" ] and wall = total_ms [ "par.map" ] in
  let hits = count "store.hits" and misses = count "store.misses" in
  let values =
    [ ("par.maps", count "par.maps"); ("par.items", count "par.items");
      ("par.busy_ms", busy); ("par.wall_ms", wall);
      ("par.util", ratio busy (wall *. float_of_int jobs)); ("par.tail_ms", tail_ms);
      ("synth.ms", total_ms [ "synth"; "synth.plan" ]);
      ("synth.reports", tallied "synth.reports");
      ("corpus.features_ms", total_ms [ "corpus.features" ]);
      ("corpus.classify_ms", total_ms [ "corpus.classify" ]);
      ("corpus.centroids_ms", total_ms [ "corpus.centroids" ]);
      ("store.find_ms", total_ms [ "store.find" ]); ("store.put_ms", total_ms [ "store.put" ]);
      ("store.hits", hits); ("store.misses", misses); ("store.writes", count "store.writes");
      ("store.hit_ratio", ratio hits (hits +. misses));
      ("store.mb_written", tallied "store.bytes" /. 1e6);
      ("store.failures", count "store.corrupt" +. count "store.write_failures");
      ("pfsm.analyze_ms", total_ms [ "pfsm.analyze" ]);
      ("pfsm.memo.lookups", count "pfsm.memo.lookups");
      ("pfsm.memo.hit_ratio", ratio (count "pfsm.memo.hits") (count "pfsm.memo.lookups"));
      ("staticcheck.lint_ms", total_ms [ "staticcheck.lint" ]);
      ("staticcheck.functions", count "staticcheck.functions");
      ("exploit.ms", total_ms [ "exploit.rows"; "exploit.consistency"; "exploit.lemma" ]);
      ("exploit.rows", tallied "exploit.rows");
      ("serve.parse_ms", total_ms [ "serve.parse" ]);
      ("serve.render_ms", total_ms [ "serve.render" ]);
      ("serve.model_build_ms", total_ms [ "serve.model_build" ]);
      ("serve.handler_ms.analyze", total_ms [ "serve.handler.analyze" ]);
      ("serve.handler_ms.lint", total_ms [ "serve.handler.lint" ]);
      ("serve.handler_ms.exploit", total_ms [ "serve.handler.exploit" ]);
      ("serve.replay_ms", self_ms "serve.replay");
      ("serve.queue_wait_ms", 1000. *. tallied "serve.queue_wait_s");
      ("serve.batches", tallied "serve.batches");
      ("resilience.items", tallied "resilience.items");
      ("resilience.attempts", tallied "resilience.attempts");
      ("resilience.useful_ratio",
       ratio (tallied "resilience.completed") (tallied "resilience.attempts"));
      ("resilience.breaker_trips", count "resilience.breaker.trips");
      ("resilience.quarantined", count "resilience.quarantine.isolated");
      ("chaos.matrix_ms", total_ms [ "chaos.matrix" ]);
      ("chaos.lint_ms", total_ms [ "chaos.lint" ]);
      ("chaos.ingest_ms", total_ms [ "chaos.ingest" ]);
      ("fault.injected", count "fault.injected");
      ("trace.overhead_pct", 100. *. ratio (traced_s -. plain_s) plain_s);
      ("trace.unattributed_pct", 100. *. ratio glue_s roots_s);
      ("trace.replica_gap_pct", 100. *. ratio (plain_s -. verb_s) verb_s) ]
    @ extra
  in
  List.map
    (fun (name, unit) -> (name, unit, Option.value ~default:0. (List.assoc_opt name values)))
    layer_metrics

type outcome = {
  metrics : (string * string * float) list;
  problems : string list;
  spans : Span.t list;
}

(* The passes run verb, untraced, traced, untraced, traced, verb, and
   each kind keeps its fastest time, so a slow phase of the host or
   a cold cache in the first pass does not land in the overhead and
   gap figures.  Spans and counts come from the last traced pass. *)
let run env sizes workload =
  Par.set_jobs env.Workload.jobs;
  let c = compositions env sizes workload in
  let result = ref None in
  c.around (fun () ->
      let reference, verb1 = timed c.verb in
      let pass ~traced =
        Span.enabled := false;
        if traced then begin
          Obs.Metrics.reset ();
          Hashtbl.reset tally;
          ignore (Span.drain ());
          Span.enabled := true
        end;
        let out, t = timed c.replica in
        Span.enabled := false;
        (out, t)
      in
      let plain1, plain1_s = pass ~traced:false in
      let traced1, traced1_s = pass ~traced:true in
      let plain2, plain2_s = pass ~traced:false in
      let traced2, traced2_s = pass ~traced:true in
      let counts =
        List.filter_map
          (function name, Obs.Metrics.Counter_v n -> Some (name, n) | _ -> None)
          (Obs.Metrics.snapshot ())
      in
      let spans = Span.drain () in
      let _, verb2 = timed c.verb in
      let extra = c.extra () in
      let differs what outs =
        if List.for_all (( = ) reference) outs then []
        else [ Printf.sprintf "%s: the %s composition differs from the verb" workload what ]
      in
      result :=
        Some
          { metrics =
              derive_metrics ~jobs:env.jobs ~spans ~counts ~extra
                ~verb_s:(Float.min verb1 verb2) ~plain_s:(Float.min plain1_s plain2_s)
                ~traced_s:(Float.min traced1_s traced2_s);
            problems = differs "untraced" [ plain1; plain2 ] @ differs "traced" [ traced1; traced2 ];
            spans });
  Option.get !result
