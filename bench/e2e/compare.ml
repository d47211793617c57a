(* [compare A.json B.json]: one row per (workload, end-to-end metric)
   of two sides, each one result file or several, judged under the
   bounds in BENCHMARK.json.  B is "better" or "worse" than A when its
   value moved by more than the allowance in that direction, "same"
   within it, and "unresolved" when either side's quartile distance
   exceeds that side's allowance.  The allowance is the bound times
   the value, but never less than the metric's floor. *)

type bound = { name : string; lower_is_better : bool; bound : float }

(* In the metric's unit.  A 10% bound on a set-up of 15 ms, or on a
   serve-store p99 of 4 ms, is finer than the host's jitter. *)
let floor = function "setup_s" -> 0.025 | "latency_p99_ms" -> 1. | _ -> 0.

let load_bounds file =
  Result.bind (Json.of_file file) (fun v ->
      let entry e =
        match Json.(path [ "name" ] e, path [ "better" ] e, path [ "bound" ] e) with
        | Some (Json.Str name), Some (Json.Str better), Some (Json.Num bound) ->
            Some { name; lower_is_better = better = "lower"; bound }
        | _ -> None
      in
      match Json.member "end_to_end" v with
      | Some (Json.Arr es) -> Ok (List.filter_map entry es)
      | _ -> Error (file ^ ": no end_to_end list"))

(* One side of the comparison, from one or more result files: the
   median of the reported values and its quartiles across files; from
   a single file, its value and the quartiles of the samples it was
   chosen from. *)
let side files workload name =
  let metric v =
    Option.bind (Json.path [ "workloads"; workload; "metrics"; name ] v) (fun m ->
        match Option.bind (Json.member "value" m) Json.num, Stat.of_json m with
        | Some value, Some s -> Some (value, s)
        | _ -> None)
  in
  match List.filter_map metric files with
  | [] -> None
  | [ one ] -> Some one
  | many ->
      let s = Stat.summarize (List.map fst many) in
      Some (s.Stat.median, s)

let verdict b (va, (sa : Stat.summary)) (vb, (sb : Stat.summary)) =
  let allowance v = Float.max (b.bound *. Float.abs v) (floor b.name) in
  let unresolved (s : Stat.summary) = s.q3 -. s.q1 > allowance s.median in
  if unresolved sa || unresolved sb then "unresolved"
  else
    let delta = vb -. va in
    if Float.abs delta <= allowance va then "same"
    else if delta < 0. = b.lower_is_better then "better"
    else "worse"

(* [a] and [b] are comma-separated lists of result files.  Exit code:
   0 when no row is worse, 1 otherwise, 2 on bad input. *)
let run ~benchmark a b =
  let load list =
    List.fold_right
      (fun f acc -> Result.bind acc (fun vs -> Result.map (fun v -> v :: vs) (Json.of_file f)))
      (String.split_on_char ',' list) (Ok [])
  in
  match load_bounds benchmark, load a, load b with
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline ("compare: " ^ e);
      2
  | Ok bounds, Ok a, Ok b ->
      let workloads vs =
        List.concat_map
          (fun v -> match Json.member "workloads" v with Some (Json.Obj ws) -> List.map fst ws | _ -> [])
          vs
        |> List.sort_uniq compare
      in
      let fmt (value, (s : Stat.summary)) =
        Printf.sprintf "%.6g [%.6g, %.6g]" value s.q1 s.q3
      in
      Printf.printf "%-14s %-18s %-36s %-36s %s\n" "workload" "metric" "A value [q1, q3]"
        "B value [q1, q3]" "verdict";
      let worse = ref 0 in
      List.iter
        (fun w ->
          if List.mem w (workloads b) then
            List.iter
              (fun bd ->
                match side a w bd.name, side b w bd.name with
                | Some sa, Some sb ->
                    let v = verdict bd sa sb in
                    if v = "worse" then incr worse;
                    Printf.printf "%-14s %-18s %-36s %-36s %s\n" w bd.name (fmt sa) (fmt sb) v
                | _ -> Printf.printf "%-14s %-18s missing on one side\n" w bd.name)
              bounds)
        (workloads a);
      if !worse > 0 then 1 else 0
