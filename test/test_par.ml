(* The deterministic multicore runtime: the Par contract (byte-equal
   output for every job count), seed splitting, the analysis memo, and
   exactly-once supervision under parallel speculation. *)

let with_jobs j f =
  Par.set_jobs j;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

let job_counts = [ 1; 2; 4 ]

(* every batch surface, rendered at -j 1, must be byte-identical at
   every other job count *)
let check_identical name render =
  let reference = with_jobs 1 render in
  List.iter
    (fun j ->
       Alcotest.(check string)
         (Printf.sprintf "%s: -j %d = -j 1" name j)
         reference
         (with_jobs j render))
    job_counts

(* ---- Par.map core ------------------------------------------------- *)

let prop_map_equals_array_map =
  let open QCheck in
  Test.make ~name:"Par.map f = Array.map f for every job count" ~count:50
    (pair (array small_int) (int_range 1 4))
    (fun (xs, j) ->
       let f x = (x * 31) lxor (x lsr 2) in
       with_jobs j (fun () -> Par.map f xs) = Array.map f xs)

let prop_filter_map =
  let open QCheck in
  Test.make ~name:"Par.filter_map matches sequential for every job count"
    ~count:50
    (pair (array small_int) (int_range 1 4))
    (fun (xs, j) ->
       let f x = if x mod 3 = 0 then Some (x * x) else None in
       with_jobs j (fun () -> Par.filter_map f xs)
       = Array.of_seq (Seq.filter_map f (Array.to_seq xs)))

let test_map_exception () =
  (* the lowest failing index wins, at any job count *)
  let xs = Array.init 64 (fun i -> i) in
  List.iter
    (fun j ->
       match
         with_jobs j (fun () ->
             Par.map (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i) xs)
       with
       | _ -> Alcotest.fail "exception swallowed"
       | exception Failure msg ->
           Alcotest.(check string)
             (Printf.sprintf "lowest failing index at -j %d" j)
             "3" msg)
    job_counts

let test_nested_map () =
  (* nested maps degrade to sequential instead of deadlocking *)
  let out =
    with_jobs 4 (fun () ->
        Par.map
          (fun i -> Array.fold_left ( + ) 0 (Par.map (fun k -> i * k) (Array.init 8 Fun.id)))
          (Array.init 16 Fun.id))
  in
  Alcotest.(check (array int)) "nested result"
    (Array.init 16 (fun i -> 28 * i))
    out

let test_lost_result_slot () =
  (* the missing-result path must raise the typed Par.Error naming the
     batch, the index and the claiming worker — not [assert false] *)
  with_jobs 4 (fun () ->
      Par.For_testing.drop_result := Some 5;
      Fun.protect ~finally:(fun () -> Par.For_testing.drop_result := None)
        (fun () ->
           match Par.map ~label:"drop-test" (fun i -> i * 2) (Array.init 16 Fun.id) with
           | _ -> Alcotest.fail "missing slot not detected"
           | exception Par.Error { batch; index; worker } ->
               Alcotest.(check string) "batch label" "drop-test" batch;
               Alcotest.(check int) "dropped index" 5 index;
               Alcotest.(check bool) "claiming worker recorded" true (worker >= 0)));
  (* and the seam is consumed: the next map is healthy *)
  Alcotest.(check (array int)) "subsequent map intact"
    (Array.init 8 (fun i -> i + 1))
    (with_jobs 4 (fun () -> Par.map (fun i -> i + 1) (Array.init 8 Fun.id)))

(* ---- seed splitting ----------------------------------------------- *)

let prop_seed_child =
  let open QCheck in
  Test.make ~name:"Seed.child: deterministic, non-negative" ~count:200
    (pair int (int_range 0 10_000))
    (fun (seed, index) ->
       let a = Par.Seed.child ~seed ~index in
       a = Par.Seed.child ~seed ~index && a >= 0)

let test_seed_child_spreads () =
  (* consecutive indices must not collide (the synth shards rely on
     distinct per-category streams) *)
  let children = List.init 64 (fun i -> Par.Seed.child ~seed:42 ~index:i) in
  Alcotest.(check int) "64 distinct children" 64
    (List.length (List.sort_uniq compare children))

(* ---- job-count parsing -------------------------------------------- *)

let test_parse_jobs () =
  (match Par.parse_jobs "4" with
   | Ok 4 -> ()
   | _ -> Alcotest.fail "4 rejected");
  (match Par.parse_jobs "1000000" with
   | Ok n -> Alcotest.(check int) "clamped" Par.max_jobs n
   | Error _ -> Alcotest.fail "huge value should clamp, not error");
  List.iter
    (fun s ->
       match Par.parse_jobs s with
       | Error _ -> ()
       | Ok n -> Alcotest.failf "%S accepted as %d" s n)
    [ "0"; "-2"; "banana"; ""; "2.5"; "0x2"; "+2"; " 2"; "1_0" ]

(* ---- byte-identity across the batch surfaces ---------------------- *)

let test_lint_sweep_identity () =
  check_identical "lint sweep JSON" (fun () ->
      Json.to_string
        (Staticcheck.Linter.sweep_to_json (Staticcheck.Linter.corpus_sweep ())))

let test_fault_matrix_identity () =
  check_identical "fault matrix reports" (fun () ->
      Exploit.Fault_matrix.run ~plans:Fault.Catalog.smoke ()
      |> List.map (Format.asprintf "%a" Exploit.Fault_matrix.pp_report)
      |> String.concat "\n")

let test_chaos_identity () =
  check_identical "chaos JSON" (fun () ->
      Chaos.to_json (Chaos.run ~plans:Fault.Catalog.smoke ()))

let test_synth_identity () =
  List.iter
    (fun seed ->
       check_identical
         (Printf.sprintf "synth CSV (seed %d)" seed)
         (fun () -> Vulndb.Csv.of_database (Vulndb.Synth.generate ~seed)))
    [ 1; 20021130 ]

(* ---- supervised parallel speculation ------------------------------ *)

let flaky_items n =
  (* per-item mutable counters, distinct resources: fails the first
     [i mod 3] invocations, then succeeds *)
  List.init n (fun i ->
      let left = ref (i mod 3) in
      { Resilience.Supervisor.id = Printf.sprintf "item-%02d" i;
        resource = Printf.sprintf "res-%02d" i;
        work =
          (fun () ->
             if !left > 0 then begin
               decr left;
               Fault.Condition.fail
                 (Fault.Condition.Heap_exhausted { requested = 64 })
             end;
             i * i) })

(* An installed injector turns speculation off: the no-op plan gives
   a sequential reference run. *)
let unspeculated f = Fault.Hooks.with_plan Fault.Catalog.none f

let test_parallel_supervision () =
  let n = 12 in
  let sequential =
    unspeculated (fun () ->
        Resilience.Supervisor.run ~label:"par-test" (flaky_items n))
  in
  let parallel =
    with_jobs 4 (fun () ->
        Resilience.Supervisor.run ~label:"par-test" (flaky_items n))
  in
  Alcotest.(check bool) "no lost items" true
    (Resilience.Run_report.no_lost ~expected:n parallel.Resilience.Supervisor.report);
  Alcotest.(check bool) "same outcomes as sequential" true
    (Resilience.Run_report.same_outcomes sequential.Resilience.Supervisor.report
       parallel.Resilience.Supervisor.report);
  Alcotest.(check (list (pair string int))) "same results"
    sequential.Resilience.Supervisor.results parallel.Resilience.Supervisor.results

let test_speculation_keyed_by_position () =
  (* two items share an id: each must still get its own speculated
     result, exactly as the sequential run computes them *)
  let items () =
    [ { Resilience.Supervisor.id = "x"; resource = "a"; work = (fun () -> 1) };
      { Resilience.Supervisor.id = "x"; resource = "b"; work = (fun () -> 2) } ]
  in
  let render (o : _ Resilience.Supervisor.outcome) =
    String.concat "; "
      (List.map (fun (id, v) -> Printf.sprintf "%s=%d" id v)
         o.Resilience.Supervisor.results)
  in
  let sequential =
    unspeculated (fun () -> render (Resilience.Supervisor.run (items ())))
  in
  Alcotest.(check string) "sequential" "x=1; x=2" sequential;
  List.iter
    (fun j ->
       Alcotest.(check string)
         (Printf.sprintf "parallel at -j %d" j)
         sequential
         (with_jobs j (fun () -> render (Resilience.Supervisor.run (items ())))))
    job_counts

let test_parallel_supervision_with_faults () =
  (* under an active fault plan the serial guard must keep the
     injector's event stream intact: sweeps at every job count see
     identical reports *)
  let plan = List.hd Fault.Catalog.smoke in
  let sweep () =
    Fault.Hooks.with_plan plan (fun () ->
        let _, report = Staticcheck.Linter.supervised_sweep () in
        Format.asprintf "%a" Resilience.Run_report.pp report)
  in
  let reference = with_jobs 1 sweep in
  List.iter
    (fun j ->
       Alcotest.(check string)
         (Printf.sprintf "faulted sweep at -j %d" j)
         reference (with_jobs j sweep))
    job_counts

(* ---- the analysis memo ------------------------------------------- *)

let test_memo () =
  let app = Apps.Iis.setup () in
  let model = Apps.Iis.model app in
  let env = Apps.Iis.scenario ~path:Apps.Iis.attack_path in
  Pfsm.Analysis.memo_reset ();
  let before = Pfsm.Analysis.memo_stats () in
  let t1 = Pfsm.Analysis.run_memo model ~env in
  let t2 = Pfsm.Analysis.run_memo model ~env in
  Alcotest.(check bool) "memo returns the computed trace" true
    (t1 = Pfsm.Model.run model ~env);
  Alcotest.(check bool) "second lookup is the same trace" true (t1 == t2);
  let s = Pfsm.Analysis.memo_stats () in
  Alcotest.(check int) "lookups" 2 (s.lookups - before.Pfsm.Analysis.lookups);
  Alcotest.(check int) "hits" 1 (s.hits - before.hits);
  Alcotest.(check int) "misses" 1 (s.misses - before.misses);
  (* an independently built but identical model shares the entry *)
  let model' = Apps.Iis.model (Apps.Iis.setup ()) in
  let t3 = Pfsm.Analysis.run_memo model' ~env in
  Alcotest.(check bool) "twin model hits the same key" true (t1 == t3);
  let s' = Pfsm.Analysis.memo_stats () in
  Alcotest.(check int) "no new miss for the twin" s.Pfsm.Analysis.misses
    s'.Pfsm.Analysis.misses

let test_memo_analyze_equals_plain () =
  let app = Apps.Iis.setup () in
  let model = Apps.Iis.model app in
  let scenarios =
    [ Apps.Iis.scenario ~path:Apps.Iis.attack_path;
      Apps.Iis.scenario ~path:Apps.Iis.benign_path;
      Apps.Iis.scenario ~path:Apps.Iis.attack_path ]
  in
  let plain = Pfsm.Analysis.analyze model ~scenarios in
  let memod = Pfsm.Analysis.analyze ~memo:true ~par:true model ~scenarios in
  Alcotest.(check int) "scenarios_run" plain.Pfsm.Analysis.scenarios_run
    memod.Pfsm.Analysis.scenarios_run;
  Alcotest.(check bool) "identical traces" true
    (plain.Pfsm.Analysis.traces = memod.Pfsm.Analysis.traces)

let () =
  Alcotest.run "par"
    [ ("pool",
       [ Alcotest.test_case "exception: lowest index wins" `Quick test_map_exception;
         Alcotest.test_case "nested maps run sequentially" `Quick test_nested_map;
         Alcotest.test_case "lost result slot raises typed Par.Error" `Quick
           test_lost_result_slot;
         QCheck_alcotest.to_alcotest prop_map_equals_array_map;
         QCheck_alcotest.to_alcotest prop_filter_map ]);
      ("seed",
       [ QCheck_alcotest.to_alcotest prop_seed_child;
         Alcotest.test_case "children spread" `Quick test_seed_child_spreads ]);
      ("jobs", [ Alcotest.test_case "parse_jobs contract" `Quick test_parse_jobs ]);
      ("identity",
       [ Alcotest.test_case "lint sweep" `Quick test_lint_sweep_identity;
         Alcotest.test_case "fault matrix" `Quick test_fault_matrix_identity;
         Alcotest.test_case "chaos" `Slow test_chaos_identity;
         Alcotest.test_case "synth database" `Quick test_synth_identity ]);
      ("supervision",
       [ Alcotest.test_case "parallel speculation: exactly once" `Quick
           test_parallel_supervision;
         Alcotest.test_case "serial guard under fault plan" `Quick
           test_parallel_supervision_with_faults;
         Alcotest.test_case "speculation keyed by position" `Quick
           test_speculation_keyed_by_position ]);
      ("memo",
       [ Alcotest.test_case "compute-once counters" `Quick test_memo;
         Alcotest.test_case "analyze ~memo ~par = analyze" `Quick
           test_memo_analyze_equals_plain ]) ]
