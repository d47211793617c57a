(* dfsm_bench — the end-to-end benchmark of the dfsm binary.

     dfsm_bench.exe --seed N [--workload NAME] [--json FILE] [--traced FILE]
                    [--smoke] [--seconds S] [--trace 0|1]
     dfsm_bench.exe compare A.json B.json

   Runs each workload against the real binary, prints every
   end-to-end metric by name with its unit, and checks every output.
   [--traced FILE] adds the in-process traced run and writes the spans
   and per-layer metrics to FILE.  With [--trace 0|1] one workload
   runs and the last line of stdout is a single JSON result: its
   end-to-end metrics (0) or its per-layer metrics (1).

   Exit codes: 0 all outputs correct, 1 an output check failed, 2
   usage error (including -j above the core count). *)

let usage =
  "dfsm_bench.exe --seed N [--workload NAME] [--json FILE] [--traced FILE] [--smoke]\n\
  \       [--seconds S] [--trace 0|1] [--jobs N] [--dfsm PATH] [--expected FILE]\n\
  \       [--benchmark FILE] [--work DIR]\n\
   dfsm_bench.exe compare A.json B.json [--benchmark FILE]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("dfsm_bench: " ^ s); exit 2) fmt

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Every metric BENCHMARK.json lists, with its unit, in [section]. *)
let listed_metrics file section =
  match Json.of_file file with
  | Error e -> die "%s" e
  | Ok v ->
      List.filter_map
        (fun m ->
          match Json.(path [ "name" ] m, path [ "unit" ] m) with
          | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
          | _ -> None)
        (Option.fold ~none:[] ~some:Json.list (Json.member section v))

let missing_metrics ~workload ~listed reported =
  List.filter_map
    (fun (name, unit) ->
      if List.mem (name, unit) reported then None
      else Some (Printf.sprintf "%s: metric %s (%s) not reported" workload name unit))
    listed

let print_problems ps =
  List.iteri (fun i p -> if i < 20 then prerr_endline ("  check failed: " ^ p)) ps;
  if List.length ps > 20 then Printf.eprintf "  ... and %d more\n" (List.length ps - 20)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics",
          Json.Obj
            (List.map
               (fun (name, unit, v) ->
                 (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
               metrics)) ])

let print_e2e (r : Workload.result) =
  List.iter
    (fun (m : Workload.metric) ->
      let s = m.samples in
      Printf.printf "%-14s %-18s %-14.6g %-5s q1 %-12.6g q3 %-12.6g n %d\n" r.workload m.name
        s.median m.unit s.q1 s.q3 s.n)
    r.metrics;
  Printf.printf "%-14s %-18s %d failed / %d attempted\n%!" r.workload "error_rate" r.failed
    r.attempted

let print_layers workload metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-14s %-26s %-14.6g %s\n" workload name v unit)
    metrics;
  flush stdout

let e2e_json (r : Workload.result) =
  Json.Obj
    [ ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("error_rate", Json.Num (float_of_int r.failed /. float_of_int (max 1 r.attempted)));
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) r.problems));
      ("calibration_s", Json.Arr (List.map (fun c -> Json.Num c) r.calibrations));
      ("metrics",
       Json.Obj
         (List.map
            (fun (m : Workload.metric) ->
              (m.name, Stat.to_json ~unit:m.unit ~values:m.values m.samples))
            r.metrics)) ]

(* The traced output: per-layer metrics, a per-span-name rollup and
   every span. *)
let traced_json (o : Traced.outcome) =
  let rollup = Hashtbl.create 32 in
  List.iter
    (fun ((s : Span.t), self) ->
      let calls, total, selfs =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt rollup s.name)
      in
      Hashtbl.replace rollup s.name (calls + 1, total +. Span.duration s, selfs +. self))
    (Span.self_times o.spans);
  let layers =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) rollup []
    |> List.sort compare
    |> List.map (fun (name, (calls, total, self)) ->
           Json.Obj
             [ ("span", Json.Str name); ("calls", Json.Num (float_of_int calls));
               ("total_ms", Json.Num (1000. *. total)); ("self_ms", Json.Num (1000. *. self)) ])
  in
  Json.Obj
    [ ("problems", Json.Arr (List.map (fun p -> Json.Str p) o.problems));
      ("metrics",
       Json.Obj
         (List.map
            (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
            o.metrics));
      ("spans_by_name", Json.Arr layers);
      ("spans", Json.Arr (List.map Span.to_json o.spans)) ]

let () =
  let seed = ref 1 and seconds = ref 20 and trace = ref None and smoke = ref false in
  let workload = ref None and json_file = ref None and traced_file = ref None in
  let jobs = ref 2 and dfsm = ref "_build/default/bin/dfsm_cli.exe" in
  let expected_file = ref "bench/e2e/expected/serve.jsonl" in
  let benchmark = ref None and work_root = ref ".e2e-work" in
  let positional = ref [] in
  let spec =
    [ ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds,
       "S  timed part: S seconds of batch runs, 2S windows of 1000 serve requests (default 20)");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1  one workload, one JSON result line");
      ("--workload", Arg.String (fun w -> workload := Some w), "NAME  run only this workload");
      ("--json", Arg.String (fun f -> json_file := Some f), "FILE  write the end-to-end results");
      ("--traced", Arg.String (fun f -> traced_file := Some f), "FILE  also run traced, write spans");
      ("--smoke", Arg.Set smoke, " a run of a few seconds (CI)");
      ("--jobs", Arg.Set_int jobs, "N  -j for dfsm (default 2)");
      ("--dfsm", Arg.Set_string dfsm, "PATH  the dfsm binary");
      ("--expected", Arg.Set_string expected_file, "FILE  expected serve payloads");
      ("--benchmark", Arg.String (fun f -> benchmark := Some f),
       "FILE  BENCHMARK.json: check its metrics are reported; bounds for compare");
      ("--work", Arg.Set_string work_root, "DIR  scratch directory (default .e2e-work)") ]
  in
  (match Arg.parse_argv Sys.argv (Arg.align spec) (fun a -> positional := !positional @ [ a ]) usage with
   | () -> ()
   | exception Arg.Help msg -> print_string msg; exit 0
   | exception Arg.Bad msg -> prerr_string msg; exit 2);
  match !positional with
  | [ "compare"; a; b ] ->
      exit (Compare.run ~benchmark:(Option.value ~default:"BENCHMARK.json" !benchmark) a b)
  | _ :: _ -> die "unexpected arguments; usage:\n%s" usage
  | [] ->
      let cores = Context.cores () in
      if !jobs > cores then die "refusing to run: -j %d exceeds the %d cores of this host" !jobs cores;
      if !jobs < 1 || !seconds < 1 then die "--jobs and --seconds must be at least 1";
      if not (Sys.file_exists !dfsm) then die "no dfsm binary at %s (build it first)" !dfsm;
      let expected =
        match Check.load_expected !expected_file with Ok e -> e | Error e -> die "%s" e
      in
      let workloads =
        match !workload, !trace with
        | Some w, _ when not (List.mem w Workload.names) ->
            die "unknown workload %s (one of %s)" w (String.concat ", " Workload.names)
        | Some w, _ -> [ w ]
        | None, Some _ -> die "--trace needs --workload"
        | None, None -> Workload.names
      in
      (match !trace with Some (0 | 1) | None -> () | Some _ -> die "--trace takes 0 or 1");
      let work = Filename.concat !work_root (string_of_int (Unix.getpid ())) in
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      (* a run killed before its clean-up leaves its directory behind *)
      Array.iter
        (fun e ->
          match int_of_string_opt e with
          | Some pid when not (Sys.file_exists (Printf.sprintf "/proc/%d" pid)) ->
              Workload.rm_rf (Filename.concat !work_root e)
          | _ -> ())
        (try Sys.readdir !work_root with Sys_error _ -> [||]);
      mkdir_p work;
      (* Each store is deleted as soon as its run ends; whatever is left
         goes here, followed by a sync so that no write-back of this
         run's files lands in the next one.  A dfsm that dies mid-write,
         or a signal, is an error to report, not a reason to skip this
         clean-up. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigint; Sys.sigterm ];
      at_exit (fun () ->
          Proc.kill_all ();
          Workload.rm_rf work;
          (try Unix.rmdir !work_root with Unix.Unix_error _ -> ());
          Workload.sync ());
      let env = { Workload.dfsm = !dfsm; jobs = !jobs; work; seed = !seed; expected } in
      let sizes = Workload.sizes ~smoke:!smoke ~seconds:!seconds in
      let context = Context.to_json ~dfsm:!dfsm ~jobs:!jobs ~seed:!seed in
      Printf.printf "context: %s\n%!" (Json.to_string context);
      let listed section = Option.map (fun f -> listed_metrics f section) !benchmark in
      let check_listed section workload reported =
        match listed section with
        | None -> []
        | Some l -> missing_metrics ~workload ~listed:l reported
      in
      match !trace with
      | Some 0 ->
          let w = List.hd workloads in
          let r = Workload.run env sizes w in
          print_e2e r;
          print_problems r.problems;
          print_endline
            (result_line ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
               (List.map (fun (m : Workload.metric) -> (m.name, m.unit, m.samples.median)) r.metrics));
          exit (if r.failed = 0 then 0 else 1)
      | Some _ ->
          let w = List.hd workloads in
          let o = Traced.run env sizes w in
          print_layers w o.metrics;
          print_problems o.problems;
          let failed = List.length o.problems in
          print_endline (result_line ~correct:(failed = 0) ~attempted:2 ~failed o.metrics);
          exit (if failed = 0 then 0 else 1)
      | None ->
          let results =
            List.map
              (fun w ->
                let r = Workload.run env sizes w in
                print_e2e r;
                let missing =
                  check_listed "end_to_end" w
                    (List.map (fun (m : Workload.metric) -> (m.name, m.unit)) r.metrics)
                in
                print_problems (r.problems @ missing);
                (w, r, missing))
              workloads
          in
          let traced =
            match !traced_file with
            | None -> []
            | Some _ ->
                List.map
                  (fun w ->
                    let o = Traced.run env sizes w in
                    print_layers w o.metrics;
                    let missing =
                      check_listed "per_layer" w (List.map (fun (n, u, _) -> (n, u)) o.metrics)
                    in
                    print_problems (o.problems @ missing);
                    (w, o, missing))
                  workloads
          in
          let save file body =
            write_file file
              (Json.to_string (Json.Obj [ ("context", context); ("workloads", Json.Obj body) ])
               ^ "\n")
          in
          Option.iter
            (fun f -> save f (List.map (fun (w, r, _) -> (w, e2e_json r)) results))
            !json_file;
          Option.iter
            (fun f -> save f (List.map (fun (w, o, _) -> (w, traced_json o)) traced))
            !traced_file;
          let failures =
            List.fold_left (fun acc (_, (r : Workload.result), m) -> acc + r.failed + List.length m) 0 results
            + List.fold_left
                (fun acc (_, (o : Traced.outcome), m) -> acc + List.length o.problems + List.length m)
                0 traced
          in
          exit (if failures = 0 then 0 else 1)
