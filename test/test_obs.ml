(* The observability layer: deterministic traces (byte-identical at
   every job count), metrics whose snapshot is the fold of the
   per-domain cells, well-parenthesized span nesting, the bounded
   model-digest cache, per-pFSM transition coverage, and the chaos
   harness's typed ingest-failure leg. *)

let with_jobs j f =
  Par.set_jobs j;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

let job_counts = [ 1; 2; 4 ]

(* A workload with orchestrator spans, nested item spans and instants,
   fanned out over the pool. *)
let traced_jsonl xs =
  Obs.Trace.start ();
  let out =
    Obs.Span.with_span ~cat:"test" "workload" @@ fun () ->
    Par.map_list ~label:"obs-test"
      (fun x ->
         Obs.Span.with_span ~cat:"test"
           ~args:[ ("x", string_of_int x) ]
           "outer"
           (fun () ->
              Obs.Span.with_span ~cat:"test" "inner" (fun () ->
                  Obs.Span.instant "tick";
                  x * x)))
      xs
  in
  let jsonl = Obs.Trace.to_jsonl (Obs.Trace.drain ()) in
  (out, jsonl)

(* ---- trace byte-identity across job counts ------------------------ *)

let prop_trace_identity =
  let open QCheck in
  Test.make ~name:"trace JSONL is byte-identical at -j 1/2/4" ~count:30
    (small_list small_int)
    (fun xs ->
       let reference = with_jobs 1 (fun () -> traced_jsonl xs) in
       List.for_all
         (fun j -> with_jobs j (fun () -> traced_jsonl xs) = reference)
         job_counts)

(* Span names and args carry request ids and other outside strings:
   both exports stay valid UTF-8 JSON whatever bytes those hold. *)
let prop_trace_exports_utf8 =
  let open QCheck in
  Test.make ~name:"trace exports are UTF-8 JSON for any bytes" ~count:100
    (triple string string string)
    (fun (name, key, value) ->
       Obs.Trace.start ();
       Obs.Span.with_span ~cat:name ~args:[ (key, value) ] name (fun () ->
           Obs.Span.instant ~args:[ (value, key) ] value);
       let events = Obs.Trace.drain () in
       let json s = String.is_valid_utf_8 s && Result.is_ok (Json.parse s) in
       json (Obs.Trace.to_chrome events)
       && List.for_all json
            (String.split_on_char '\n' (String.trim (Obs.Trace.to_jsonl events))))

let test_chaos_trace_identity () =
  (* the flagship contract: a traced chaos run serializes identically
     at every -j *)
  let traced () =
    Obs.Trace.start ();
    let report = Chaos.run ~plans:Fault.Catalog.smoke ~seed:7 () in
    (report, Obs.Trace.drain ())
  in
  let render () =
    let report, events = traced () in
    (Chaos.to_json report, Obs.Trace.to_jsonl events)
  in
  (* fault events are typed values whose text is rendered only for a
     live trace; the fault.injected instants still carry it as args *)
  let injected =
    List.filter
      (fun (e : Obs.Trace.event) -> e.name = "fault.injected")
      (snd (with_jobs 1 traced))
  in
  Alcotest.(check bool) "fault.injected instants traced" true (injected <> []);
  List.iter
    (fun (e : Obs.Trace.event) ->
       Alcotest.(check (list string)) "fault.injected args" [ "seam"; "detail" ]
         (List.map fst e.args))
    injected;
  Alcotest.(check (list (pair string string)))
    "first injected fault"
    [ ("seam", "osmodel.socket"); ("detail", "recv(1024) clamped to 7 bytes") ]
    (List.hd injected).args;
  let reference = with_jobs 1 render in
  List.iter
    (fun j ->
       let got = with_jobs j render in
       Alcotest.(check string)
         (Printf.sprintf "chaos report at -j %d" j)
         (fst reference) (fst got);
       Alcotest.(check string)
         (Printf.sprintf "chaos trace at -j %d" j)
         (snd reference) (snd got))
    job_counts

(* ---- span nesting ------------------------------------------------- *)

let test_span_nesting () =
  (* every item's span stream, keyed by (epoch, slot), obeys stack
     discipline: depth never goes negative, every E closes the B on
     top of the stack, and the stream ends balanced *)
  let events =
    with_jobs 4 (fun () ->
        Obs.Trace.start ();
        ignore
          (Par.map_list ~label:"nesting"
             (fun x ->
                Obs.Span.with_span "outer" (fun () ->
                    Obs.Span.with_span "inner" (fun () ->
                        Obs.Span.instant "tick";
                        x)))
             (List.init 20 Fun.id));
        Obs.Trace.drain ())
  in
  Alcotest.(check bool) "trace non-empty" true (events <> []);
  let streams = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Trace.event) ->
       if e.slot >= 0 then
         let key = (e.epoch, e.slot) in
         Hashtbl.replace streams key
           (e :: (Option.value ~default:[] (Hashtbl.find_opt streams key))))
    events;
  Hashtbl.iter
    (fun (epoch, slot) rev_stream ->
       let stack = ref [] in
       List.iter
         (fun (e : Obs.Trace.event) ->
            match e.ph with
            | Obs.Trace.B -> stack := e.name :: !stack
            | Obs.Trace.E -> (
                match !stack with
                | top :: rest ->
                    Alcotest.(check string)
                      (Printf.sprintf "E closes top at (%d,%d)" epoch slot)
                      top e.name;
                    stack := rest
                | [] ->
                    Alcotest.failf "unmatched E %S at (%d,%d)" e.name epoch
                      slot)
            | Obs.Trace.I -> ())
         (List.rev rev_stream);
       Alcotest.(check (list string))
         (Printf.sprintf "balanced at (%d,%d)" epoch slot)
         [] !stack)
    streams

let test_seq_strictly_increasing () =
  let _, jsonl = with_jobs 2 (fun () -> traced_jsonl (List.init 10 Fun.id)) in
  (* vt in the serialized JSONL is the merged rank: line i carries
     "vt":i *)
  List.iteri
    (fun i line ->
       let needle = Printf.sprintf "\"vt\":%d," i in
       let ok =
         let nh = String.length line and nn = String.length needle in
         let rec at k = k + nn <= nh && (String.sub line k nn = needle || at (k + 1)) in
         at 0
       in
       Alcotest.(check bool) (Printf.sprintf "line %d carries its rank" i) true ok)
    (String.split_on_char '\n' (String.trim jsonl))

(* ---- metrics: snapshot = fold of per-domain cells ----------------- *)

let m_test = Obs.Metrics.counter "test.obs.counter"

let prop_counter_fold =
  let open QCheck in
  Test.make ~name:"counter total = sum of per-domain cells" ~count:30
    (pair (int_range 0 200) (int_range 1 4))
    (fun (n, j) ->
       let before = Obs.Metrics.counter_value m_test in
       with_jobs j (fun () ->
           ignore
             (Par.map (fun () -> Obs.Metrics.incr m_test) (Array.make n ())));
       let total = Obs.Metrics.counter_value m_test in
       total = before + n
       && total
          = List.fold_left ( + ) 0 (Obs.Metrics.per_domain_counts m_test))

let test_snapshot_reports_counter () =
  Obs.Metrics.incr m_test;
  let snap = Obs.Metrics.snapshot () in
  match List.assoc_opt "test.obs.counter" snap with
  | Some (Obs.Metrics.Counter_v v) ->
      Alcotest.(check int) "snapshot value" (Obs.Metrics.counter_value m_test) v
  | _ -> Alcotest.fail "counter missing from snapshot"

let test_registration_idempotent () =
  let a = Obs.Metrics.counter "test.obs.idem" in
  let b = Obs.Metrics.counter "test.obs.idem" in
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  Alcotest.(check int) "one metric behind both handles"
    (Obs.Metrics.counter_value a) (Obs.Metrics.counter_value b);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Obs.Metrics: \"test.obs.idem\" already registered with another kind")
    (fun () -> ignore (Obs.Metrics.gauge "test.obs.idem"))

(* ---- bounded model-digest cache ----------------------------------- *)

let test_digest_cache_bounded () =
  let env = Apps.Iis.scenario ~path:Apps.Iis.attack_path in
  let evictions = Obs.Metrics.counter "pfsm.memo.digest_evictions" in
  let before = Obs.Metrics.counter_value evictions in
  (* every freshly built model is a distinct physical key; overfilling
     the 64-slot ring by 8 must evict at least 8 digests (the unbounded
     assoc list it replaces retained all of them), and a model whose
     digest was evicted and recomputed still gets the right trace *)
  for _ = 1 to 64 + 8 do
    let model = Apps.Iis.model (Apps.Iis.setup ()) in
    Alcotest.(check bool) "memo trace = Model.run" true
      (Pfsm.Analysis.run_memo model ~env = Pfsm.Model.run model ~env)
  done;
  Alcotest.(check bool) "evictions counted" true
    (Obs.Metrics.counter_value evictions - before >= 8)

(* ---- per-pFSM transition coverage --------------------------------- *)

let iis_report () =
  let app = Apps.Iis.setup () in
  let model = Apps.Iis.model app in
  let scenarios =
    [ Apps.Iis.scenario ~path:Apps.Iis.attack_path;
      Apps.Iis.scenario ~path:Apps.Iis.benign_path ]
  in
  Pfsm.Analysis.analyze model ~scenarios

let test_coverage_of_report () =
  let report = iis_report () in
  let cov = Pfsm.Coverage.of_report report in
  Alcotest.(check int) "one cell per pFSM"
    (List.length (Pfsm.Model.all_pfsms report.Pfsm.Analysis.model))
    (List.length cov.Pfsm.Coverage.cells);
  (* conservation: the cells count exactly the transitions the traces
     took, no more, no less *)
  let in_cells =
    List.fold_left
      (fun acc (c : Pfsm.Coverage.cell) ->
         acc + c.spec_acpt + c.spec_rej + c.impl_rej + c.impl_acpt)
      0 cov.Pfsm.Coverage.cells
  in
  let in_traces =
    List.fold_left
      (fun acc (_env, trace) ->
         List.fold_left
           (fun a (s : Pfsm.Trace.step) ->
              a + List.length s.verdict.Pfsm.Primitive.path)
           acc trace.Pfsm.Trace.steps)
      0 report.Pfsm.Analysis.traces
  in
  Alcotest.(check int) "transition counts conserved" in_traces in_cells;
  Alcotest.(check bool) "exercised <= total" true
    (Pfsm.Coverage.edges_exercised cov <= Pfsm.Coverage.edges_total cov);
  Alcotest.(check bool) "attack+benign exercise something" true
    (Pfsm.Coverage.edges_exercised cov > 0)

let test_coverage_merge () =
  let cov = Pfsm.Coverage.of_report (iis_report ()) in
  let doubled = Pfsm.Coverage.merge cov cov in
  Alcotest.(check int) "scenarios sum"
    (2 * cov.Pfsm.Coverage.scenarios) doubled.Pfsm.Coverage.scenarios;
  Alcotest.(check int) "same cell set"
    (Pfsm.Coverage.edges_total cov) (Pfsm.Coverage.edges_total doubled);
  Alcotest.(check int) "same edges exercised"
    (Pfsm.Coverage.edges_exercised cov)
    (Pfsm.Coverage.edges_exercised doubled);
  List.iter2
    (fun (a : Pfsm.Coverage.cell) (b : Pfsm.Coverage.cell) ->
       Alcotest.(check int) ("doubled " ^ a.operation ^ "/" ^ a.pfsm)
         (2 * (a.spec_acpt + a.spec_rej + a.impl_rej + a.impl_acpt))
         (b.spec_acpt + b.spec_rej + b.impl_rej + b.impl_acpt))
    cov.Pfsm.Coverage.cells doubled.Pfsm.Coverage.cells;
  let e = Pfsm.Coverage.merge Pfsm.Coverage.empty cov in
  Alcotest.(check int) "empty is neutral"
    (Pfsm.Coverage.edges_exercised cov) (Pfsm.Coverage.edges_exercised e)

(* ---- chaos: a mangled CSV document is a typed leg, not a crash ---- *)

let test_chaos_mangled_csv () =
  (* an unterminated quote mangles the document itself: tokenisation
     fails before any row parses.  chaos.ml used to [failwith] here. *)
  let mangled = "id,\"unterminated\nnot,even,close" in
  let report =
    match Chaos.run ~plans:[ List.hd Fault.Catalog.smoke ] ~csv:mangled () with
    | r -> r
    | exception e ->
        Alcotest.failf "chaos crashed on mangled CSV: %s" (Printexc.to_string e)
  in
  List.iter
    (fun (run : Chaos.plan_run) ->
       List.iter
         (fun (leg : Chaos.leg) ->
            if leg.Chaos.leg_name = "ingest" then
              match leg.Chaos.outcome with
              | Chaos.Failed { stage; detail } ->
                  Alcotest.(check string) "stage" "ingest" stage;
                  Alcotest.(check bool) "detail names the offence" true
                    (String.length detail > 0)
              | Chaos.Ran _ -> Alcotest.fail "mangled document parsed")
         run.Chaos.legs)
    report.Chaos.runs;
  Alcotest.(check bool) "violations flag the failed leg" true
    (Chaos.violations report <> []);
  Alcotest.(check bool) "report not ok" true (not (Chaos.ok report));
  (* and the failure renders, both ways *)
  Alcotest.(check bool) "json renders" true
    (String.length (Chaos.to_json report) > 0);
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Chaos.pp report) > 0)

(* ---- allocs: span-scoped allocation accounting -------------------- *)

let counter_in_snapshot name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Counter_v v) -> v
  | _ -> Alcotest.failf "%s missing from snapshot" name

let test_allocs_scope_measures () =
  let scope = Obs.Allocs.scope "test.obs.leg" in
  let r =
    Obs.Allocs.measure scope (fun () ->
        Array.length (Array.init 4096 string_of_int))
  in
  Alcotest.(check int) "closure result" 4096 r;
  Alcotest.(check bool) "bytes charged" true
    (counter_in_snapshot "alloc.test.obs.leg.bytes" > 0);
  Alcotest.(check bool) "minor words charged" true
    (counter_in_snapshot "alloc.test.obs.leg.minor_words" > 0);
  Alcotest.(check int) "one span" 1 (counter_in_snapshot "alloc.test.obs.leg.spans")

let test_allocs_records_on_raise () =
  let scope = Obs.Allocs.scope "test.obs.raise" in
  (match
     Obs.Allocs.measure scope (fun () ->
         ignore (Sys.opaque_identity (List.init 1000 string_of_int));
         raise Exit)
   with
   | () -> Alcotest.fail "closure was expected to raise"
   | exception Exit -> ());
  Alcotest.(check int) "span recorded despite raise" 1
    (counter_in_snapshot "alloc.test.obs.raise.spans");
  Alcotest.(check bool) "bytes recorded despite raise" true
    (counter_in_snapshot "alloc.test.obs.raise.bytes" > 0)

let test_allocs_bytes_of () =
  let r, bytes = Obs.Allocs.bytes_of (fun () -> Bytes.make 100_000 'x') in
  Alcotest.(check int) "probe result" 100_000 (Bytes.length r);
  Alcotest.(check bool) "probe saw the allocation" true (bytes >= 100_000.)

let () =
  Alcotest.run "obs"
    [ ("trace",
       [ QCheck_alcotest.to_alcotest prop_trace_identity;
         QCheck_alcotest.to_alcotest prop_trace_exports_utf8;
         Alcotest.test_case "chaos trace identity" `Slow
           test_chaos_trace_identity;
         Alcotest.test_case "span nesting" `Quick test_span_nesting;
         Alcotest.test_case "vt = merged rank" `Quick
           test_seq_strictly_increasing ]);
      ("metrics",
       [ QCheck_alcotest.to_alcotest prop_counter_fold;
         Alcotest.test_case "snapshot reports counters" `Quick
           test_snapshot_reports_counter;
         Alcotest.test_case "registration idempotent" `Quick
           test_registration_idempotent ]);
      ("allocs",
       [ Alcotest.test_case "scope measures" `Quick test_allocs_scope_measures;
         Alcotest.test_case "records on raise" `Quick
           test_allocs_records_on_raise;
         Alcotest.test_case "bytes_of probe" `Quick test_allocs_bytes_of ]);
      ("digest-cache",
       [ Alcotest.test_case "bounded with evictions" `Quick
           test_digest_cache_bounded ]);
      ("coverage",
       [ Alcotest.test_case "of_report conserves counts" `Quick
           test_coverage_of_report;
         Alcotest.test_case "merge sums cells" `Quick test_coverage_merge ]);
      ("chaos",
       [ Alcotest.test_case "mangled CSV is a typed leg" `Quick
           test_chaos_mangled_csv ]) ]
