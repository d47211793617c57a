module Category = Vulndb.Category

let categories = Array.of_list Category.all

let ncat = Array.length categories

type model = { centroids : float array array }

let train seq =
  let sums = Array.init ncat (fun _ -> Array.make Features.dim 0.) in
  let counts = Array.make ncat 0 in
  Seq.iter
    (fun (category, v) ->
      let i = Category.index category in
      counts.(i) <- counts.(i) + 1;
      let s = sums.(i) in
      for k = 0 to Features.dim - 1 do
        s.(k) <- s.(k) +. v.(k)
      done)
    seq;
  let centroids =
    Array.init ncat (fun i ->
        if counts.(i) = 0 then Array.make Features.dim 0.
        else begin
          let n = float_of_int counts.(i) in
          Array.map (fun s -> s /. n) sums.(i)
        end)
  in
  { centroids }

let predict model v =
  let best = ref 0 and best_d = ref infinity in
  for i = 0 to ncat - 1 do
    let c = model.centroids.(i) in
    let d = ref 0. in
    for k = 0 to Features.dim - 1 do
      let x = v.(k) -. c.(k) in
      d := !d +. (x *. x)
    done;
    if !d < !best_d then begin
      best := i;
      best_d := !d
    end
  done;
  !best

let centroids model = model.centroids

let model_digest model =
  let b = Buffer.create 1024 in
  Buffer.add_string b "corpus-centroids/1";
  Array.iter
    (fun c ->
      Array.iter (fun x -> Buffer.add_string b (Printf.sprintf "|%h" x)) c)
    model.centroids;
  Digest.to_hex (Digest.string (Buffer.contents b))

type confusion = { n : int; counts : int array }

let confusion_empty = { n = 0; counts = Array.make (ncat * ncat) 0 }

let confusion_merge a b =
  { n = a.n + b.n; counts = Array.init (ncat * ncat) (fun k -> a.counts.(k) + b.counts.(k)) }

let accuracy m =
  if m.n = 0 then 0.
  else begin
    let correct = ref 0 in
    for i = 0 to ncat - 1 do
      correct := !correct + m.counts.((i * ncat) + i)
    done;
    float_of_int !correct /. float_of_int m.n
  end

let true_count m i =
  let t = ref 0 in
  for j = 0 to ncat - 1 do
    t := !t + m.counts.((i * ncat) + j)
  done;
  !t

let majority_share m =
  if m.n = 0 then 0.
  else begin
    let best = ref 0 in
    for i = 0 to ncat - 1 do
      best := max !best (true_count m i)
    done;
    float_of_int !best /. float_of_int m.n
  end

let category_rows m =
  List.mapi
    (fun i c -> (c, true_count m i, m.counts.((i * ncat) + i)))
    (Array.to_list categories)
