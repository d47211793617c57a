(* The retired per-report classify path, kept as the differential
   oracle for the draw table of {!Corpus.Pipeline.run}: every report of
   a chunk is built, and [classify_all] scores it.  [classify_all] sums
   each (row, centroid) distance over the row slots once per call, in
   [predict]'s order, then adds each report's three tail squares, so
   each prediction is [Classifier.predict model (Features.of_report r)]
   bit for bit.  The only change from the retired code: [chunk_iter]
   walks {!Vulndb.Synth.chunk_reports}'s list, since the builder of a
   single position is not exported. *)

module Category = Vulndb.Category
module Classifier = Corpus.Classifier
module Features = Corpus.Features

let chunk_iter p ~seed ~chunk ~index f =
  List.iter f (Vulndb.Synth.chunk_reports p ~seed ~chunk ~index)

let classify_all model iter =
  let ncat = Classifier.ncat in
  let centroids = Classifier.centroids model in
  let row_d = Array.make (Features.rows * ncat) 0. in
  for row = 0 to Features.rows - 1 do
    let slots = Features.row row in
    for i = 0 to ncat - 1 do
      let c = centroids.(i) in
      let d = ref 0. in
      for k = 0 to Features.row_dim - 1 do
        let x = slots.(k) -. c.(k) in
        d := !d +. (x *. x)
      done;
      row_d.((row * ncat) + i) <- !d
    done
  done;
  let v = Array.make Features.dim 0. in
  let counts = Array.make (ncat * ncat) 0 in
  let n = ref 0 in
  iter (fun (r : Vulndb.Report.t) ->
      Features.set_tail r v;
      let base = Features.row_of r * ncat in
      let best = ref 0 and best_d = ref infinity in
      for i = 0 to ncat - 1 do
        let c = centroids.(i) in
        let d = ref row_d.(base + i) in
        for k = Features.row_dim to Features.dim - 1 do
          let x = v.(k) -. c.(k) in
          d := !d +. (x *. x)
        done;
        if !d < !best_d then begin
          best := i;
          best_d := !d
        end
      done;
      let k = (Category.index r.Vulndb.Report.category * ncat) + !best in
      counts.(k) <- counts.(k) + 1;
      incr n);
  { Classifier.n = !n; counts }

let chunk_confusion model p ~seed ~chunk ~index =
  classify_all model (chunk_iter p ~seed ~chunk ~index)
