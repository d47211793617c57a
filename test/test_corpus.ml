(* The streaming corpus pipeline: plan validation (typed errors
   instead of deep Database.add crashes), chunk-merge equality with
   the legacy generator, id-space safety around curated ids inside
   the synthetic block, the nearest-centroid classifier's
   determinism, and store-backed incremental sweeps surviving the
   durability fault catalog. *)

module Synth = Vulndb.Synth
module Report = Vulndb.Report
module Category = Vulndb.Category
module Database = Vulndb.Database

let fresh_dir () =
  let d = Filename.temp_file "dfsm-corpus" ".d" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_jobs jobs f =
  let prev = Par.jobs () in
  Par.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Par.set_jobs prev) f

let sort_by_id rs =
  List.sort (fun (a : Report.t) (b : Report.t) -> compare a.Report.id b.Report.id) rs

(* ---- stream ≡ generate -------------------------------------------- *)

let stream_all ~seed ~chunk =
  let acc = ref [] in
  (match
     Synth.generate_stream ~seed ~total:Synth.legacy_total ~chunk
       (fun ~index:_ rs -> acc := rs :: !acc)
   with
   | Ok n -> Alcotest.(check int) "streamed count" Synth.legacy_total n
   | Error e -> Alcotest.failf "generate_stream: %s" (Synth.error_to_string e));
  List.concat (List.rev !acc)

let prop_stream_equals_generate =
  let open QCheck in
  Test.make
    ~name:"corpus: generate_stream chunk-merge = generate, any seed/chunk"
    ~count:6
    (pair small_nat (int_range 1 9000))
    (fun (seed, chunk) ->
      let streamed = sort_by_id (stream_all ~seed ~chunk) in
      let reference = Database.reports (Synth.generate ~seed) in
      streamed = reference)

let test_stream_jobs_identical () =
  (* the same merge, report for report, at -j 1 / 2 / 4 *)
  let at jobs = with_jobs jobs (fun () -> stream_all ~seed:7 ~chunk:1024) in
  let j1 = at 1 in
  Alcotest.(check bool) "-j2 identical" true (at 2 = j1);
  Alcotest.(check bool) "-j4 identical" true (at 4 = j1);
  Alcotest.(check bool)
    "chunk order is index order" true
    (sort_by_id j1 = Database.reports (Synth.generate ~seed:7))

(* ---- plan validation ---------------------------------------------- *)

let test_plan_typed_errors () =
  (match Synth.plan ~total:0 () with
   | Error (Synth.Invalid_total 0) -> ()
   | _ -> Alcotest.fail "total 0 must be Invalid_total");
  (match Synth.plan ~total:((max_int / Synth.legacy_total) + 1) () with
   | Error (Synth.Id_overflow _) -> ()
   | _ -> Alcotest.fail "huge total must be Id_overflow");
  (match
     Synth.generate_stream ~seed:1 ~total:100 ~chunk:0 (fun ~index:_ _ -> ())
   with
   | Error (Synth.Invalid_chunk 0) -> ()
   | _ -> Alcotest.fail "chunk 0 must be Invalid_chunk");
  let dup =
    [ Report.make ~id:42 ~title:"a" ~date:"2000-01-01"
        ~category:Category.Unknown ~software:"x" ();
      Report.make ~id:42 ~title:"b" ~date:"2000-01-02"
        ~category:Category.Unknown ~software:"y" () ]
  in
  match Synth.plan ~curated:dup ~total:100 () with
  | Error (Synth.Duplicate_curated_id 42) -> ()
  | _ -> Alcotest.fail "duplicate curated ids must be a typed error"

let test_curated_id_inside_synthetic_block () =
  (* a curated report forced into the synthetic id range: the old
     generator would have crashed with Database.add: duplicate id the
     moment the block reached it; the plan now steps over it *)
  let intruder =
    Report.make ~id:(Synth.synthetic_id_base + 5)
      ~title:"Curated report squatting in the synthetic block"
      ~date:"2001-01-01" ~category:Category.Design_error ~software:"intruder" ()
  in
  match Synth.plan ~curated:[ intruder ] ~total:60 () with
  | Error e -> Alcotest.failf "plan: %s" (Synth.error_to_string e)
  | Ok p ->
      let reports =
        List.concat
          (List.init
             (Synth.chunk_count p ~chunk:16)
             (fun i -> Synth.chunk_reports p ~seed:3 ~chunk:16 ~index:i))
      in
      Alcotest.(check int) "plan size" (Synth.plan_size p) (List.length reports);
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (r : Report.t) ->
          if Hashtbl.mem seen r.Report.id then
            Alcotest.failf "duplicate id %d" r.Report.id;
          Hashtbl.add seen r.Report.id ())
        reports;
      Alcotest.(check bool) "intruder present" true
        (Hashtbl.mem seen intruder.Report.id);
      Alcotest.(check int) "intruder id used exactly once" 1
        (List.length
           (List.filter
              (fun (r : Report.t) -> r.Report.id = intruder.Report.id)
              reports))

let test_million_scale_skips_stock_curated_ids () =
  (* the stock data has curated ids 900001/900002 inside a
     million-report synthetic block — the live satellite-3 collision *)
  match Synth.plan ~total:1_000_000 () with
  | Error e -> Alcotest.failf "plan: %s" (Synth.error_to_string e)
  | Ok p ->
      Alcotest.(check int) "planned size" 1_000_000 (Synth.plan_size p);
      let curated_high = [ Vulndb.Seed_data.xterm_id; Vulndb.Seed_data.rwall_id ] in
      let cross = Vulndb.Seed_data.xterm_id - Synth.synthetic_id_base in
      List.iter
        (fun pos ->
          if pos >= 0 && pos < Synth.plan_synthetic p then begin
            let id = Synth.id_at p pos in
            if List.mem id curated_high then
              Alcotest.failf "synthetic position %d collides with curated id %d"
                pos id
          end)
        [ 0; 1; cross - 2; cross - 1; cross; cross + 1; cross + 2;
          Synth.plan_synthetic p - 1 ];
      (* strictly monotonic across the skip: no reuse, no gap-induced dup *)
      let rec mono pos =
        if pos < min (cross + 4) (Synth.plan_synthetic p - 1) then begin
          if not (Synth.id_at p pos < Synth.id_at p (pos + 1)) then
            Alcotest.failf "ids not strictly increasing at %d" pos;
          mono (pos + 1)
        end
      in
      mono (max 0 (cross - 4))

(* ---- classifier --------------------------------------------------- *)

let run_exn ?curated ~seed ~total ~chunk () =
  match Corpus.Pipeline.run ?curated ~seed ~total ~chunk () with
  | Ok t -> t
  | Error e -> Alcotest.failf "pipeline: %s" (Synth.error_to_string e)

let test_classifier_contract () =
  let t = run_exn ~seed:11 ~total:Synth.legacy_total ~chunk:512 () in
  Alcotest.(check int) "conservation" t.Corpus.Pipeline.planned
    t.Corpus.Pipeline.confusion.Corpus.Classifier.n;
  Alcotest.(check bool) "beats the majority baseline" true
    (t.Corpus.Pipeline.accuracy >= t.Corpus.Pipeline.baseline);
  Alcotest.(check bool) "gate" true (Corpus.Pipeline.ok t);
  (* deterministic: a second identical run renders byte-identically *)
  let t' = run_exn ~seed:11 ~total:Synth.legacy_total ~chunk:512 () in
  Alcotest.(check string) "byte-identical rerun"
    (Corpus.Pipeline.to_json t) (Corpus.Pipeline.to_json t')

let test_classifier_chunk_and_jobs_invariant () =
  let base = run_exn ~seed:5 ~total:2000 ~chunk:512 () in
  let other = run_exn ~seed:5 ~total:2000 ~chunk:333 () in
  Alcotest.(check bool) "confusion invariant under chunk size" true
    (base.Corpus.Pipeline.confusion = other.Corpus.Pipeline.confusion);
  let at jobs =
    with_jobs jobs (fun () ->
        Corpus.Pipeline.to_json (run_exn ~seed:5 ~total:2000 ~chunk:512 ()))
  in
  let j1 = at 1 in
  Alcotest.(check string) "-j2 byte-identical" j1 (at 2);
  Alcotest.(check string) "-j4 byte-identical" j1 (at 4)

(* ---- store-backed sweeps ------------------------------------------ *)

let test_warm_sweep_incremental () =
  let reference =
    Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ())
  in
  with_dir (fun dir ->
      let s = Store.Disk.open_ ~dir in
      Store.Handle.with_store (Some s) (fun () ->
          let cold =
            Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ())
          in
          Alcotest.(check string) "cold = store-less" reference cold;
          let before = Store.Disk.stats () in
          let warm =
            Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ())
          in
          let d = Store.Disk.sub_stats (Store.Disk.stats ()) before in
          Alcotest.(check string) "warm = store-less" reference warm;
          Alcotest.(check int) "warm recomputes nothing" 0 d.Store.Disk.misses;
          Alcotest.(check int) "warm writes nothing" 0 d.Store.Disk.writes;
          Alcotest.(check bool) "warm is all hits" true (d.Store.Disk.hits > 0)))

let test_spill_crash_recovery () =
  (* the SIGKILL-mid-spill shape, via the store crash harness: every
     durability plan in the catalog (torn shard writes, flips, write
     errors, crash-before-rename — the states a kill leaves behind)
     runs a spilling sweep; the answer must equal the store-less
     reference, fsck --repair must end clean, and an honest rerun
     against the battered store must still agree *)
  let reference =
    Corpus.Pipeline.to_json (run_exn ~seed:9 ~total:800 ~chunk:64 ())
  in
  List.iteri
    (fun i plan ->
      let plan = { plan with Fault.Plan.seed = 100 + i } in
      with_dir (fun dir ->
          let s = Store.Disk.open_ ~dir in
          let faulted, _events =
            Fault.Hooks.run plan (fun () ->
                Store.Handle.with_store (Some s) (fun () ->
                    Corpus.Pipeline.to_json
                      (run_exn ~seed:9 ~total:800 ~chunk:64 ())))
          in
          Alcotest.(check string)
            (Printf.sprintf "plan %s: faulted spill never lies"
               plan.Fault.Plan.name)
            reference faulted;
          let s2 = Store.Disk.open_ ~dir in
          let repaired = Store.Fsck.scan ~repair:true s2 in
          let after = Store.Fsck.scan s2 in
          Alcotest.(check bool)
            (Printf.sprintf "plan %s: fsck --repair ends clean"
               plan.Fault.Plan.name)
            true
            (Store.Fsck.clean repaired && Store.Fsck.clean after);
          let honest =
            Store.Handle.with_store (Some s2) (fun () ->
                Corpus.Pipeline.to_json (run_exn ~seed:9 ~total:800 ~chunk:64 ()))
          in
          Alcotest.(check string)
            (Printf.sprintf "plan %s: post-repair rerun agrees"
               plan.Fault.Plan.name)
            reference honest))
    Fault.Catalog.disk

(* ---- suite -------------------------------------------------------- *)

let () =
  Alcotest.run "corpus"
    [ ("stream",
       [ QCheck_alcotest.to_alcotest prop_stream_equals_generate;
         Alcotest.test_case "byte-identical at -j 1/2/4" `Quick
           test_stream_jobs_identical ]);
      ("plan",
       [ Alcotest.test_case "typed errors" `Quick test_plan_typed_errors;
         Alcotest.test_case "curated id inside the synthetic block" `Quick
           test_curated_id_inside_synthetic_block;
         Alcotest.test_case "million-scale skips stock curated ids" `Quick
           test_million_scale_skips_stock_curated_ids ]);
      ("classifier",
       [ Alcotest.test_case "conservation, baseline, determinism" `Quick
           test_classifier_contract;
         Alcotest.test_case "chunk- and jobs-invariant" `Quick
           test_classifier_chunk_and_jobs_invariant ]);
      ("store",
       [ Alcotest.test_case "warm sweep recomputes nothing" `Quick
           test_warm_sweep_incremental;
         Alcotest.test_case "crash-mid-spill recovery" `Quick
           test_spill_crash_recovery ]) ]
