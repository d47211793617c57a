(* The streaming corpus pipeline: plan validation (typed errors
   instead of deep Database.add crashes), chunk-merge equality with
   the legacy generator, id-space safety around curated ids inside
   the synthetic block, the nearest-centroid classifier's
   determinism, the draw table against the per-report oracle, and
   store-backed incremental sweeps surviving the durability fault
   catalog. *)

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

(* ---- pinned report bytes ------------------------------------------ *)

(* [generate] and [generate_stream] share one report builder, so the
   property above cannot see a change in what it builds.  These digests
   pin the bytes themselves: the legacy corpus as `dfsm csv --seed 1`
   prints it, and chunks sampled across a million-report plan at
   another seed.  Chunk 0 holds the curated reports, chunk 195 steps
   over the curated ids 900001/900002, and chunk 244 is partial. *)

let md5_hex s = Digest.to_hex (Digest.string s)

let test_pinned_report_bytes () =
  Alcotest.(check string) "csv --seed 1" "a2097c2ea1a106c4ddf7ab0ce5cd9e14"
    (md5_hex (Vulndb.Csv.of_database (Synth.generate ~seed:1)));
  match Synth.plan ~total:1_000_000 () with
  | Error e -> Alcotest.failf "plan: %s" (Synth.error_to_string e)
  | Ok p ->
      List.iter
        (fun (index, expected) ->
          let rows =
            List.map Vulndb.Csv.of_report
              (Synth.chunk_reports p ~seed:20021130 ~chunk:4096 ~index)
          in
          Alcotest.(check string)
            (Printf.sprintf "1M plan, chunk %d" index)
            expected
            (md5_hex (String.concat "\n" rows)))
        [ (0, "d545bf4d11af1a03391f8f5b12d3a9e2");
          (1, "b336c3af281aebdecfd3e3ab03eb2bda");
          (122, "9f7d30a20f306e6169e6829d083a3c0a");
          (195, "1e850fdfd26a60fcdff73a201edb3b92");
          (244, "3ddda3a7e467d7f5cea01b1c886e0360") ]

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

(* [predict] still scores every curated report and the benchmark's
   traced replica.  The oracle's [classify_all] sums each (row,
   centroid) distance once per call and adds each report's tail to it;
   [predict] sums all slots per report.  Both add the same floats in
   the same order, so they must agree exactly: on arbitrary reports
   (empty titles, runs and leading spaces, dates that are not four
   digits, every flaw, range and category) against models trained on
   random vectors.  Some models give several categories the same
   training vectors, and some give every category the same ones: their
   centroids coincide, and only the first of the tied categories may
   win. *)

let all_flaws =
  [ Report.Stack_buffer_overflow; Report.Heap_overflow; Report.Integer_overflow;
    Report.Format_string; Report.File_race; Report.Path_traversal; Report.Other_flaw ]

let gen_report =
  let open QCheck.Gen in
  let title = string_size ~gen:(oneofl [ ' '; ' '; 'a'; 'Z'; '9'; '-' ]) (int_range 0 30) in
  let date =
    oneof
      [ map
          (fun (y, m) -> Printf.sprintf "%04d-%02d-01" y m)
          (pair (int_range 0 9999) (int_range 1 12));
        oneofl [ ""; "199"; "2001"; "abcd-01-01"; "-199-01-01"; "0x1F-01-01"; " 200"; "20 1" ];
        string_size ~gen:printable (int_range 0 6) ]
  in
  map
    (fun ((title, date), (category, flaw, range)) ->
      Report.make ~id:1 ~title ~date ~category ~software:"s" ~range ~flaw ())
    (pair (pair title date)
       (triple (oneofl Category.all) (oneofl all_flaws)
          (oneofl [ Report.Remote; Report.Local; Report.Both ])))

(* Labelled training vectors: random ones, or the features of random
   reports so that the centroids sit among the reports classified. *)
let gen_model =
  let open QCheck.Gen in
  let vector =
    oneof
      [ array_repeat Corpus.Features.dim (float_range (-10.) 80.);
        map Corpus.Features.of_report gen_report ]
  in
  let per_category = list_size (int_range 0 3) vector in
  let* own = list_repeat Corpus.Classifier.ncat per_category in
  let* shared = per_category in
  let* copies = list_repeat Corpus.Classifier.ncat (int_range 0 3) in
  let* all_shared = frequencyl [ (3, false); (1, true) ] in
  (* category [i] trains on its own vectors, on [shared] (copy 0), or
     on category [i - 1]'s (copy 1) *)
  let vectors =
    List.mapi
      (fun i (vs, copy) ->
        if all_shared || copy = 0 then shared
        else if copy = 1 && i > 0 then List.nth own (i - 1)
        else vs)
      (List.combine own copies)
  in
  return
    (Corpus.Classifier.train
       (List.to_seq
          (List.concat
             (List.map2 (fun c vs -> List.map (fun v -> (c, v)) vs) Category.all
                vectors))))

(* The tail and the range slots, found by name, against the plain
   reading of the report; the rest of the vector is the report's row. *)
let prop_of_report_slots =
  let slot name =
    let rec go i = if Corpus.Features.names.(i) = name then i else go (i + 1) in
    go 0
  in
  QCheck.Test.make ~name:"corpus: of_report = row, then title length, words, year"
    ~count:500
    (QCheck.make
       ~print:(fun (r : Report.t) -> Printf.sprintf "%S %S" r.Report.title r.Report.date)
       gen_report)
    (fun (r : Report.t) ->
      let v = Corpus.Features.of_report r in
      let year =
        let d = r.Report.date in
        if String.length d >= 4
           && String.for_all (fun c -> '0' <= c && c <= '9') (String.sub d 0 4)
        then int_of_string (String.sub d 0 4) - 1998
        else 0
      in
      let words =
        List.length (List.filter (( <> ) "") (String.split_on_char ' ' r.Report.title))
      in
      let one_hot range = if r.Report.range = range then 1. else 0. in
      Array.length v = Corpus.Features.dim
      && Array.sub v 0 Corpus.Features.row_dim
         = Corpus.Features.row (Corpus.Features.row_of r)
      && v.(slot "range_remote") = one_hot Report.Remote
      && v.(slot "range_local") = one_hot Report.Local
      && v.(slot "range_both") = one_hot Report.Both
      && v.(slot "title_length") = float_of_int (String.length r.Report.title)
      && v.(slot "title_words") = float_of_int words
      && v.(slot "year") = float_of_int year)

(* The truth index found by searching [Category.all], so the property
   also checks [Category.index], which both paths use. *)
let category_position c =
  let rec go i = function
    | [] -> assert false
    | c' :: rest -> if Category.equal c c' then i else go (i + 1) rest
  in
  go 0 Category.all

let predict_each model reports =
  let ncat = Corpus.Classifier.ncat in
  let counts = Array.make (ncat * ncat) 0 in
  List.iter
    (fun (r : Report.t) ->
      let k =
        (category_position r.Report.category * ncat)
        + Corpus.Classifier.predict model (Corpus.Features.of_report r)
      in
      counts.(k) <- counts.(k) + 1)
    reports;
  { Corpus.Classifier.n = List.length reports; counts }

let prop_classify_all_is_predict =
  QCheck.Test.make ~name:"corpus: classify_all = predict of of_report, per report"
    ~count:300
    (QCheck.make
       ~print:(fun (_, rs) ->
         String.concat "; "
           (List.map (fun (r : Report.t) -> Printf.sprintf "%S %S" r.Report.title r.Report.date) rs))
       QCheck.Gen.(pair gen_model (list_size (int_range 0 40) gen_report)))
    (fun (model, reports) ->
      Corpus_ref.classify_all model (fun f -> List.iter f reports)
      = predict_each model reports)

(* ---- the draw table ----------------------------------------------- *)

(* [Pipeline.chunk_classifier] scores a synthetic position from its
   draw alone; the oracle builds every report and scores it.  They must
   give the same confusion, chunk by chunk. *)

let model_exn ~seed =
  match Corpus.Pipeline.centroids ~seed with
  | Ok m -> m
  | Error e -> Alcotest.failf "centroids: %s" (Synth.error_to_string e)

let plan_exn ~total =
  match Synth.plan ~total () with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan: %s" (Synth.error_to_string e)

(* Both paths over every chunk of a plan: the first chunk index at
   which they differ, if any, and the oracle's chunks merged. *)
let compare_chunks ~seed ~total ~chunk =
  let p = plan_exn ~total and model = model_exn ~seed in
  let classify = Corpus.Pipeline.chunk_classifier model p in
  let rec go index merged =
    if index = Synth.chunk_count p ~chunk then (None, merged)
    else
      let oracle = Corpus_ref.chunk_confusion model p ~seed ~chunk ~index in
      if classify ~seed ~chunk ~index <> oracle then (Some index, merged)
      else go (index + 1) (Corpus.Classifier.confusion_merge merged oracle)
  in
  go 0 Corpus.Classifier.confusion_empty

let test_draw_table_million () =
  let seed = 20021130 and total = 1_000_000 and chunk = 4096 in
  match compare_chunks ~seed ~total ~chunk with
  | Some index, _ -> Alcotest.failf "1M plan, chunk %d: table <> oracle" index
  | None, merged ->
      Alcotest.(check bool) "run = the oracle's chunks, merged" true
        ((run_exn ~seed ~total ~chunk ()).Corpus.Pipeline.confusion = merged)

(* Small chunks fall inside the 15-report curated prefix or straddle
   it, and any chunk may straddle segments.  Small chunks are drawn for
   small totals, so that no case holds more than about 4000 chunks. *)
let prop_draw_table_any_plan =
  let open QCheck in
  let gen =
    Gen.(
      let* total = frequency [ (3, int_range 1 3000); (1, int_range 3000 100_000) ] in
      let* chunk =
        frequency [ (2, int_range 1 16); (2, int_range 17 4096); (1, int_range 4097 120_000) ]
      in
      let* seed = int_range 0 1_000_000 in
      return (total, max chunk ((total / 4000) + 1), seed))
  in
  Test.make ~name:"corpus: draw table = oracle, chunk by chunk, any plan" ~count:25
    (make ~print:(fun (t, c, s) -> Printf.sprintf "total %d chunk %d seed %d" t c s) gen)
    (fun (total, chunk, seed) -> fst (compare_chunks ~seed ~total ~chunk) = None)

(* A chunk miss visits every synthetic position of its chunk; the
   visit reads three draws and allocates nothing per position (the
   scorer's own closure is made before the count starts). *)
let test_chunk_draws_allocate_nothing_per_position () =
  let p = plan_exn ~total:1_000_000 in
  let sum = ref 0 in
  let curated _ = incr sum
  and synthetic ~segment ~package ~range ~year =
    sum := !sum + segment + package + year + (if range = Report.Remote then 1 else 0)
  in
  let before = Gc.minor_words () in
  Synth.chunk_draws p ~seed:20021130 ~chunk:4096 ~index:122 ~curated ~synthetic;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "visited" true (!sum > 0);
  Alcotest.(check (float 0.)) "minor words for 4096 positions" 0. words

(* The table leaves out the version numbers, the day and the month.
   For every (category, flaw) pair and package, the vector of the
   report [Synth] builds must not change with the version, and for
   every year it must not change with the day or the month. *)
let test_draw_table_key_complete () =
  let d0 =
    { Synth.minor = 0; major = 0; package = 0; range = Report.Remote; day = 1; month = 1;
      year = Synth.first_year }
  in
  let vector category flaw (d : Synth.draw) =
    Corpus.Features.of_fields ~flaw ~range:d.Synth.range
      ~title:(Synth.title category flaw d) ~date:(Synth.date d)
  in
  List.iter
    (fun category ->
      List.iter
        (fun flaw ->
          for package = 0 to Synth.packages - 1 do
            let d = { d0 with package } in
            let expected = vector category flaw d in
            for major = 0 to 4 do
              for minor = 0 to 9 do
                if vector category flaw { d with major; minor } <> expected then
                  Alcotest.failf "%s/%s, package %d: version %d.%d moves the vector"
                    (Category.to_string category) (Report.flaw_to_string flaw) package
                    major minor
              done
            done
          done)
        all_flaws)
    Category.all;
  for year = Synth.first_year to Synth.last_year do
    let d = { d0 with year } in
    let expected = vector Category.Unknown Report.Other_flaw d in
    for month = 1 to 12 do
      for day = 1 to 28 do
        if vector Category.Unknown Report.Other_flaw { d with month; day } <> expected then
          Alcotest.failf "%d-%02d-%02d moves the vector" year month day
      done
    done
  done

(* ---- store-backed sweeps ------------------------------------------ *)

(* The draw table is built by the first chunk that misses: once on a
   cold run, at any [-j], and never on a warm one. *)
let m_tables = Obs.Metrics.counter "corpus.tables"

let tables_built f =
  let before = Obs.Metrics.counter_value m_tables in
  let r = f () in
  (r, Obs.Metrics.counter_value m_tables - before)

let test_warm_sweep_incremental () =
  let reference =
    Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ())
  in
  with_dir (fun dir ->
      let s = Store.Disk.open_ ~dir in
      Store.Handle.with_store (Some s) (fun () ->
          let cold, tables =
            tables_built (fun () ->
                with_jobs 2 (fun () ->
                    Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ())))
          in
          Alcotest.(check string) "cold = store-less" reference cold;
          Alcotest.(check int) "cold builds one table" 1 tables;
          let before = Store.Disk.stats () in
          let warm, tables =
            tables_built (fun () ->
                Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ()))
          in
          let d = Store.Disk.sub_stats (Store.Disk.stats ()) before in
          Alcotest.(check string) "warm = store-less" reference warm;
          Alcotest.(check int) "warm builds no table" 0 tables;
          Alcotest.(check int) "warm recomputes nothing" 0 d.Store.Disk.misses;
          Alcotest.(check int) "warm writes nothing" 0 d.Store.Disk.writes;
          Alcotest.(check bool) "warm is all hits" true (d.Store.Disk.hits > 0)))

(* The store holds two tiers: one summary per chunk and the trained
   centroids.  Generated reports are never written: a summary miss
   regenerates its chunk. *)
let m_generated = Obs.Metrics.counter "corpus.generated"
let m_summaries = Obs.Metrics.counter "corpus.summaries"

let test_cold_sweep_record_count () =
  with_dir (fun dir ->
      let s = Store.Disk.open_ ~dir in
      let before = Store.Disk.stats () in
      let t =
        Store.Handle.with_store (Some s) (fun () ->
            run_exn ~seed:3 ~total:1200 ~chunk:128 ())
      in
      let d = Store.Disk.sub_stats (Store.Disk.stats ()) before in
      let chunks = t.Corpus.Pipeline.chunks in
      Alcotest.(check int) "writes: one summary per chunk + centroids"
        (chunks + 1) d.Store.Disk.writes;
      Alcotest.(check int) "records on disk" (chunks + 1)
        (List.length
           (List.filter
              (fun f -> Filename.check_suffix f ".rec")
              (Store.Disk.object_files s))))

(* The summary key recipe, restated: a change to it would cold-start
   every store warmed by an earlier build. *)
let summary_key ~seed ~total ~chunk ~index =
  match Synth.plan ~total (), Corpus.Pipeline.centroids ~seed with
  | Ok p, Ok model ->
      Digest.to_hex
        (Digest.string
           (Printf.sprintf "corpus-summary/1|%s|seed=%d|chunk=%d|index=%d|%s|%s"
              (Synth.plan_digest p) seed chunk index
              (Corpus.Classifier.model_digest model)
              Corpus.Features.version))
  | _ -> Alcotest.fail "plan or centroids"

let test_evicted_summary_regenerates_its_chunk () =
  let reference =
    Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ())
  in
  with_dir (fun dir ->
      let s = Store.Disk.open_ ~dir in
      Store.Handle.with_store (Some s) (fun () ->
          ignore (run_exn ~seed:3 ~total:1200 ~chunk:128 ());
          let index = 9 in  (* the partial last chunk *)
          let path =
            Store.Disk.record_path s
              ~key:(summary_key ~seed:3 ~total:1200 ~chunk:128 ~index)
          in
          Alcotest.(check bool) "summary record exists" true
            (Sys.file_exists path);
          Sys.remove path;
          let expected =
            match Synth.plan ~total:1200 () with
            | Ok p ->
                List.length (Synth.chunk_reports p ~seed:3 ~chunk:128 ~index)
            | Error e -> Alcotest.failf "plan: %s" (Synth.error_to_string e)
          in
          let generated = Obs.Metrics.counter_value m_generated
          and summaries = Obs.Metrics.counter_value m_summaries
          and before = Store.Disk.stats () in
          let rerun, tables =
            tables_built (fun () ->
                Corpus.Pipeline.to_json (run_exn ~seed:3 ~total:1200 ~chunk:128 ()))
          in
          let d = Store.Disk.sub_stats (Store.Disk.stats ()) before in
          Alcotest.(check string) "rerun = store-less" reference rerun;
          Alcotest.(check int) "corpus.tables: one" 1 tables;
          Alcotest.(check int) "corpus.generated: that chunk's reports"
            expected
            (Obs.Metrics.counter_value m_generated - generated);
          Alcotest.(check int) "corpus.summaries: one" 1
            (Obs.Metrics.counter_value m_summaries - summaries);
          Alcotest.(check int) "one miss" 1 d.Store.Disk.misses;
          Alcotest.(check int) "one write" 1 d.Store.Disk.writes))

let test_spill_crash_recovery () =
  (* the SIGKILL-mid-sweep shape, via the store crash harness: every
     durability plan in the catalog (torn record writes, flips, write
     errors, crash-before-rename — the states a kill leaves behind)
     runs a store-backed sweep; every plan must fire, the answer must
     equal the store-less reference, fsck --repair must end clean, and
     an honest rerun against the battered store must still agree *)
  let reference =
    Corpus.Pipeline.to_json (run_exn ~seed:9 ~total:800 ~chunk:64 ())
  in
  List.iteri
    (fun i plan ->
      let plan = { plan with Fault.Plan.seed = 100 + i } in
      with_dir (fun dir ->
          let s = Store.Disk.open_ ~dir in
          let faulted, events =
            Fault.Hooks.run plan (fun () ->
                Store.Handle.with_store (Some s) (fun () ->
                    Corpus.Pipeline.to_json
                      (run_exn ~seed:9 ~total:800 ~chunk:64 ())))
          in
          Alcotest.(check bool)
            (Printf.sprintf "plan %s: injected at least one fault"
               plan.Fault.Plan.name)
            true (events <> []);
          Alcotest.(check string)
            (Printf.sprintf "plan %s: faulted sweep never lies"
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
           test_stream_jobs_identical;
         Alcotest.test_case "pinned report bytes" `Quick
           test_pinned_report_bytes ]);
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
           test_classifier_chunk_and_jobs_invariant;
         QCheck_alcotest.to_alcotest prop_of_report_slots;
         QCheck_alcotest.to_alcotest prop_classify_all_is_predict ]);
      ("draw table",
       [ Alcotest.test_case "= oracle on every chunk of the 1M plan" `Quick
           test_draw_table_million;
         QCheck_alcotest.to_alcotest prop_draw_table_any_plan;
         Alcotest.test_case "a chunk's draws allocate nothing per position" `Quick
           test_chunk_draws_allocate_nothing_per_position;
         Alcotest.test_case "no left-out draw moves a vector" `Quick
           test_draw_table_key_complete ]);
      ("store",
       [ Alcotest.test_case "warm sweep recomputes nothing" `Quick
           test_warm_sweep_incremental;
         Alcotest.test_case "cold sweep writes chunks + 1 records" `Quick
           test_cold_sweep_record_count;
         Alcotest.test_case "evicted summary regenerates its chunk" `Quick
           test_evicted_summary_regenerates_its_chunk;
         Alcotest.test_case "crash-mid-spill recovery" `Quick
           test_spill_crash_recovery ]) ]
