module Synth = Vulndb.Synth
module Category = Vulndb.Category

let m_chunks = Obs.Metrics.counter "corpus.chunks"
let m_reports = Obs.Metrics.counter "corpus.reports"
let m_generated = Obs.Metrics.counter "corpus.generated"
let m_summaries = Obs.Metrics.counter "corpus.summaries"
let m_tables = Obs.Metrics.counter "corpus.tables"

let train_chunk = 512

let key fmt = Printf.ksprintf (fun s -> Digest.to_hex (Digest.string s)) fmt

let centroids ~seed =
  match Synth.plan ~total:Synth.legacy_total () with
  | Error e -> Error e
  | Ok p ->
      let k =
        key "corpus-centroids/1|%s|seed=%d|%s" (Synth.plan_digest p) seed
          Features.version
      in
      Ok
        (Store.Handle.cached ~tag:"corpus-centroids" ~key:k (fun () ->
             let n = Synth.chunk_count p ~chunk:train_chunk in
             Classifier.train
               (Seq.concat_map
                  (fun i ->
                    Seq.map
                      (fun (r : Vulndb.Report.t) ->
                        (r.Vulndb.Report.category, Features.of_report r))
                      (List.to_seq
                         (Synth.chunk_reports p ~seed ~chunk:train_chunk ~index:i)))
                  (Seq.init n Fun.id))))

type t = {
  total : int;
  planned : int;
  chunk : int;
  chunks : int;
  confusion : Classifier.confusion;
  accuracy : float;
  baseline : float;
}

let years = Synth.last_year - Synth.first_year + 1

let ranges = [| Vulndb.Report.Remote; Vulndb.Report.Local; Vulndb.Report.Both |]

let range_index = function
  | Vulndb.Report.Remote -> 0
  | Vulndb.Report.Local -> 1
  | Vulndb.Report.Both -> 2

let[@inline] cell ~segment ~package ~range ~year =
  (((((segment * Array.length ranges) + range_index range) * Synth.packages) + package)
   * years)
  + year - Synth.first_year

(* A synthetic report's vector depends only on its segment and on its
   draw's range, package and year: the version numbers are single
   digits, so the title's length and words depend on the package alone,
   and the day and month are not part of the year.  So the draw table
   holds, for every (segment, range, package, year) of the plan, the
   confusion cell [truth * ncat + predicted] of [predict] on the vector
   [Features] gives such a report, built from the title and date
   [Synth] writes for it.  Curated reports are scored one by one. *)
let chunk_classifier model p =
  Obs.Metrics.incr m_tables;
  let segments = Synth.segments p and ncat = Classifier.ncat in
  let table =
    Array.make (Array.length segments * Array.length ranges * Synth.packages * years) 0
  in
  let d0 =
    { Synth.minor = 0; major = 0; package = 0; range = ranges.(0); day = 1; month = 1;
      year = Synth.first_year }
  in
  let dates = Array.init years (fun k -> Synth.date { d0 with year = Synth.first_year + k }) in
  Array.iteri
    (fun segment (category, flaw) ->
      let truth = Category.index category * ncat in
      for package = 0 to Synth.packages - 1 do
        let title = Synth.title category flaw { d0 with package } in
        Array.iter
          (fun range ->
            Array.iteri
              (fun k date ->
                let v = Features.of_fields ~flaw ~range ~title ~date in
                table.(cell ~segment ~package ~range ~year:(Synth.first_year + k))
                <- truth + Classifier.predict model v)
              dates)
          ranges
      done)
    segments;
  fun ~seed ~chunk ~index ->
    let counts = Array.make (ncat * ncat) 0 and n = ref 0 in
    let count k =
      counts.(k) <- counts.(k) + 1;
      incr n
    in
    Synth.chunk_draws p ~seed ~chunk ~index
      ~curated:(fun r ->
        count
          ((Category.index r.Vulndb.Report.category * ncat)
           + Classifier.predict model (Features.of_report r)))
      ~synthetic:(fun ~segment ~package ~range ~year ->
        count table.(cell ~segment ~package ~range ~year));
    { Classifier.n = !n; counts }

let run ?curated ~seed ~total ~chunk () =
  if chunk < 1 then Error (Synth.Invalid_chunk chunk)
  else
    match Synth.plan ?curated ~total () with
    | Error e -> Error e
    | Ok p -> (
        match centroids ~seed with
        | Error e -> Error e
        | Ok model ->
            let md = Classifier.model_digest model in
            let pd = Synth.plan_digest p in
            let n = Synth.chunk_count p ~chunk in
            (* The table is built by the first chunk that misses the
               store, so a warm run builds none.  [Lazy.force] is not
               domain-safe; the lock is. *)
            let scorer = ref None and lock = Mutex.create () in
            let classify ~seed ~chunk ~index =
              let f =
                Mutex.protect lock (fun () ->
                    match !scorer with
                    | Some f -> f
                    | None ->
                        let f = chunk_classifier model p in
                        scorer := Some f;
                        f)
              in
              f ~seed ~chunk ~index
            in
            let summary i =
              Store.Handle.cached ~tag:"corpus-summary"
                ~key:
                  (key "corpus-summary/1|%s|seed=%d|chunk=%d|index=%d|%s|%s" pd
                     seed chunk i md Features.version)
                (fun () ->
                  Obs.Metrics.incr m_summaries;
                  let c = classify ~seed ~chunk ~index:i in
                  Obs.Metrics.add m_generated c.Classifier.n;
                  c)
            in
            let summaries =
              Par.map ~label:"corpus-classify" summary (Array.init n Fun.id)
            in
            let confusion =
              Array.fold_left Classifier.confusion_merge
                Classifier.confusion_empty summaries
            in
            Obs.Metrics.add m_chunks n;
            Obs.Metrics.add m_reports confusion.Classifier.n;
            Ok
              { total; planned = Synth.plan_size p; chunk; chunks = n;
                confusion;
                accuracy = Classifier.accuracy confusion;
                baseline = Classifier.majority_share confusion })

let ok t = t.confusion.Classifier.n = t.planned && t.accuracy >= t.baseline

let pp ppf t =
  Format.fprintf ppf "corpus: %d reports planned (%d requested), %d chunk%s of %d@."
    t.planned t.total t.chunks
    (if t.chunks = 1 then "" else "s")
    t.chunk;
  Format.fprintf ppf "classified: %d  accuracy: %.4f  baseline: %.4f  %s@."
    t.confusion.Classifier.n t.accuracy t.baseline
    (if ok t then "ok" else "DEGRADED");
  Format.fprintf ppf "%-44s %10s %10s %8s@." "category" "reports" "correct"
    "recall";
  List.iter
    (fun (c, total, correct) ->
      Format.fprintf ppf "%-44s %10d %10d %8s@." (Category.to_string c) total
        correct
        (if total = 0 then "-"
         else Printf.sprintf "%.4f" (float_of_int correct /. float_of_int total)))
    (Classifier.category_rows t.confusion)

let to_json t =
  let ncat = Classifier.ncat and counts = t.confusion.Classifier.counts in
  let category (c, total, correct) =
    Json.(
      Obj
        [ ("category", Str (Category.to_string c)); ("reports", Int total);
          ("correct", Int correct) ])
  in
  let row i = Json.List (List.init ncat (fun j -> Json.Int counts.((i * ncat) + j))) in
  Json.(
    to_string ~layout:Indented
      (Obj
         [ ("total", Int t.total); ("planned", Int t.planned); ("chunk", Int t.chunk);
           ("chunks", Int t.chunks); ("classified", Int t.confusion.Classifier.n);
           ("accuracy", Fixed (6, t.accuracy)); ("baseline", Fixed (6, t.baseline));
           ("ok", Bool (ok t));
           ("categories",
            List (List.map category (Classifier.category_rows t.confusion)));
           ("confusion", List (List.init ncat row)) ]))
