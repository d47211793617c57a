(* Process-wide metrics registry.

   Each metric owns one cell per domain (a [Domain.DLS] slot), so the
   hot path — a counter bump inside a pool worker — is an unsynchronized
   write to domain-local memory.  The cells are enrolled in a global
   per-metric list the first time a domain touches the metric, and a
   [snapshot] folds them together under the registry lock: counters and
   histograms sum, gauges keep the high-water mark.  Metrics are
   intentionally *not* part of the determinism contract event-by-event —
   only their totals are (a chunk of items lands on whichever worker
   grabs it first) — which is why traces never embed live metric
   reads. *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ---- cells --------------------------------------------------------- *)

(* [n]: counter count / gauge high-water / histogram observation count.
   [sum] and [vmax] are histogram-only.  Buckets are powers of two:
   bucket [i] holds observations with [i] significant bits, i.e. values
   in [2^(i-1), 2^i - 1]; bucket 0 holds values <= 0. *)
type cell = {
  mutable n : int;
  mutable sum : int;
  mutable vmax : int;
  buckets : int array;
}

let bucket_count = 63

let new_cell () = { n = 0; sum = 0; vmax = 0; buckets = Array.make bucket_count 0 }

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min !b (bucket_count - 1)
  end

(* ---- metrics ------------------------------------------------------- *)

type kind = Counter | Gauge | Histogram

type metric = {
  name : string;
  kind : kind;
  cells : cell list ref;      (* under [lock] *)
  key : cell Domain.DLS.key;
}

type counter = metric
type gauge = metric
type histogram = metric

(* name -> metric, under [lock]; creation is idempotent so module-level
   [let m = counter "x"] in two libraries shares one metric. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let make kind name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %S already registered with another kind"
             name);
      m
  | None ->
      let cells = ref [] in
      let key =
        Domain.DLS.new_key (fun () ->
            let c = new_cell () in
            Mutex.lock lock;
            cells := c :: !cells;
            Mutex.unlock lock;
            c)
      in
      let m = { name; kind; cells; key } in
      Hashtbl.add registry name m;
      m

(* The DLS init of a cell locks the registry; [make] holds it.  Safe
   because [make] never touches DLS — cells materialize lazily on the
   first [incr]/[observe] from each domain, outside [make]. *)

let counter name = make Counter name
let gauge name = make Gauge name
let histogram name = make Histogram name

let cell_of m = Domain.DLS.get m.key

let add m v =
  let c = cell_of m in
  c.n <- c.n + v

let incr m = add m 1

let observe_gauge m v =
  let c = cell_of m in
  if v > c.n then c.n <- v

let observe m v =
  let c = cell_of m in
  c.n <- c.n + 1;
  c.sum <- c.sum + v;
  if v > c.vmax then c.vmax <- v;
  let b = bucket_of v in
  c.buckets.(b) <- c.buckets.(b) + 1

(* ---- snapshots ----------------------------------------------------- *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of { count : int; sum : int; max : int; buckets : (int * int) list }

type snapshot = (string * value) list

let fold_metric m =
  let cells = !(m.cells) in
  match m.kind with
  | Counter -> Counter_v (List.fold_left (fun acc c -> acc + c.n) 0 cells)
  | Gauge -> Gauge_v (List.fold_left (fun acc c -> max acc c.n) 0 cells)
  | Histogram ->
      let count = List.fold_left (fun acc c -> acc + c.n) 0 cells in
      let sum = List.fold_left (fun acc c -> acc + c.sum) 0 cells in
      let vmax = List.fold_left (fun acc c -> max acc c.vmax) 0 cells in
      let buckets =
        List.init bucket_count (fun i ->
            (i, List.fold_left (fun acc c -> acc + c.buckets.(i)) 0 cells))
        |> List.filter (fun (_, n) -> n > 0)
      in
      Histogram_v { count; sum; max = vmax; buckets }

let snapshot () =
  locked @@ fun () ->
  Hashtbl.fold (fun _ m acc -> (m.name, fold_metric m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      List.iter
        (fun c ->
          c.n <- 0;
          c.sum <- 0;
          c.vmax <- 0;
          Array.fill c.buckets 0 bucket_count 0)
        !(m.cells))
    registry

(* test hooks *)
let counter_value m = match fold_metric m with Counter_v n -> n | _ -> 0
let per_domain_counts m = locked (fun () -> List.map (fun c -> c.n) !(m.cells))

(* ---- rendering ----------------------------------------------------- *)

let value_to_json = function
  | Counter_v n | Gauge_v n -> Json.Int n
  | Histogram_v { count; sum; max; buckets } ->
      let bucket (i, n) = (string_of_int i, Json.Int n) in
      Json.(
        Obj
          [ ("count", Int count); ("sum", Int sum); ("max", Int max);
            ("buckets", Obj (List.map bucket buckets)) ])

let to_json snap = Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap)

let pp ppf snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter_v n -> Format.fprintf ppf "%-40s %d@." name n
      | Gauge_v n -> Format.fprintf ppf "%-40s %d (high-water)@." name n
      | Histogram_v { count; sum; max; _ } ->
          Format.fprintf ppf "%-40s count=%d sum=%d max=%d@." name count sum max)
    snap
