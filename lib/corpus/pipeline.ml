module Synth = Vulndb.Synth
module Category = Vulndb.Category

let m_chunks = Obs.Metrics.counter "corpus.chunks"
let m_reports = Obs.Metrics.counter "corpus.reports"
let m_generated = Obs.Metrics.counter "corpus.generated"
let m_summaries = Obs.Metrics.counter "corpus.summaries"

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
            let summary i =
              Store.Handle.cached ~tag:"corpus-summary"
                ~key:
                  (key "corpus-summary/1|%s|seed=%d|chunk=%d|index=%d|%s|%s" pd
                     seed chunk i md Features.version)
                (fun () ->
                  Obs.Metrics.incr m_summaries;
                  let reports =
                    Store.Handle.cached ~tag:"corpus-chunk"
                      ~key:
                        (key "corpus-chunk/1|%s|seed=%d|chunk=%d|index=%d" pd
                           seed chunk i)
                      (fun () ->
                        let rs = Synth.chunk_reports p ~seed ~chunk ~index:i in
                        Obs.Metrics.add m_generated (List.length rs);
                        rs)
                  in
                  Classifier.classify_all model reports)
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
