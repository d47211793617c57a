(* Order statistics over the samples of one run. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), so the spreads this program reports
   match the ones computed from its result lines. *)
let quartiles xs =
  let data = List.sort compare xs |> Array.of_list in
  let ld = Array.length data in
  match ld with
  | 0 -> (0., 0., 0.)
  | 1 -> (data.(0), data.(0), data.(0))
  | _ ->
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((data.(j - 1) *. float_of_int (4 - delta))
         +. (data.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 2, q 3)

let summarize xs =
  let q1, median, q3 = quartiles xs in
  { median; q1; q3; n = List.length xs }

(* Nearest-rank percentile; for fewer than 100 samples p99 is the
   slowest sample. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let to_json ~unit ~values s =
  Json.Obj
    [ ("unit", Json.Str unit); ("value", Json.Num s.median); ("median", Json.Num s.median);
      ("q1", Json.Num s.q1); ("q3", Json.Num s.q3);
      ("n", Json.Num (float_of_int s.n));
      ("values", Json.Arr (List.map (fun x -> Json.Num x) values)) ]

let of_json v =
  match Json.(path [ "median" ] v, path [ "q1" ] v, path [ "q3" ] v) with
  | Some (Json.Num median), Some (Json.Num q1), Some (Json.Num q3) ->
      let n = Option.value ~default:1 (Option.bind (Json.member "n" v) Json.int) in
      Some { median; q1; q3; n }
  | _ -> None
