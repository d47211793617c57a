(* Benchmark & reproduction harness.

   Regenerates every table and figure of the paper (the rows / series
   the paper reports), then times the layers underneath: the lint
   sweep, resilience, PAR, OBS, SERVE, STORE, PERF and CORPUS
   sections.

   Run with: dune exec bench/main.exe -- [--smoke] [--json [FILE]] [--compare FILE]

   --smoke     runs the fast subset (figure-1 check, lint sweep, the
               resilience, PAR, OBS, SERVE, STORE, PERF and CORPUS
               sections) with 5 timing rounds instead of 10 — the CI
               perf-trajectory step
   --json      additionally writes every recorded metric as machine-
               readable JSON (default file: BENCH.json)
   --compare   diffs this run's cost metrics (keys suffixed -ms, -s,
               -ns, -bytes) and rates (keys suffixed -per-s) against a
               committed baseline JSON and exits 1 on a regression past
               20% (with a per-unit absolute floor against timer
               jitter) or on a gated baseline key this run lacks *)

let smoke = ref false

let json_out : string option ref = ref None

(* The job count the run started with (DFSM_JOBS, else the hardware
   count); every leg restores it when it is done. *)
let ambient = Par.jobs ()

let cores = Domain.recommended_domain_count ()

(* ---- metric store: section -> metric -> value -------------------- *)

let metrics : (string * (string * float) list ref) list ref = ref []

let record ~section:s name v =
  match List.assoc_opt s !metrics with
  | Some cell -> cell := (name, v) :: !cell
  | None -> metrics := !metrics @ [ (s, ref [ (name, v) ]) ]

(* "SECTION/key" -> the verdict on that ratio or before/after pair *)
let verdicts : (string * string) list ref = ref []

let write_json path =
  (* integral values print as integers; NaN and infinities as null *)
  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
    else Json.Float v
  in
  let section (s, cell) =
    (s, Json.Obj (List.rev_map (fun (name, v) -> (name, number v)) !cell))
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Str "dfsm-bench/1");
        ("smoke", Json.Bool !smoke);
        ("jobs", Json.Int ambient);
        ("cores", Json.Int cores);
        ("ocaml", Json.Str Sys.ocaml_version);
        ("sections", Json.Obj (List.map section !metrics));
        ("verdicts", Json.Obj (List.rev_map (fun (k, v) -> (k, Json.Str v)) !verdicts)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~layout:Indented doc ^ "\n"));
  Format.printf "@.wrote %s@." path

(* ---- baseline comparison: --compare FILE -------------------------- *)

let compare_baseline : string option ref = ref None

(* Costs (lower is better) and rates (higher is better) are gated; a
   name's unit suffix says which it is.  Each cost class has an
   absolute floor the excess must clear before the 20% threshold
   counts.  Allocation counts are deterministic for a deterministic
   workload (the timing helper keeps the least over its rounds, to
   shed one-off runtime housekeeping), so `-bytes` is the precise,
   load-bearing gate at the relative threshold alone.  Wall-clock
   metrics on shared CI runners routinely jitter 2-3x on 10-600 ms
   legs, so a timing metric must at least *double* past its unit floor
   before it fails the build — timings catch catastrophes, bytes catch
   representation regressions.  A `-per-s` rate is the inverse of a
   timing and is gated like one: it regresses when the time per unit
   doubles, that is when the rate halves. *)
type gate = Cost of float  (* absolute floor *) | Rate

let threshold = 20.0

let gate_of name ~base =
  let has suffix = String.ends_with ~suffix name in
  if has "-per-s" then Some Rate
  else if has "-bytes" then Some (Cost 4096.)
  else if has "-ms" then Some (Cost (Float.max 100. base))
  else if has "-ns" then Some (Cost (Float.max 100_000. base))
  else if has "-s" || has "_s" then Some (Cost (Float.max 1.0 base))
  else None

let regressed gate ~base ~cur =
  let slack = 1. +. (threshold /. 100.) in
  match gate with
  | Cost floor -> cur > base *. slack && cur -. base > floor
  | Rate -> cur *. slack < base && cur *. 2. < base

(* The N of a key's "-jN" part: "lint-progen-j4-ms" and "run-ms-j4"
   both run at -j 4. *)
let jobs_of_key name =
  List.find_map
    (fun part ->
      if String.length part > 1 && part.[0] = 'j' then
        int_of_string_opt (String.sub part 1 (String.length part - 1))
      else None)
    (String.split_on_char '-' name)

let compare_with_baseline path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e ->
      Printf.eprintf "bench: cannot read baseline %s: %s\n" path e;
      exit 2
  in
  let doc =
    match Json.parse text with
    | Ok doc -> doc
    | Error e ->
        Printf.eprintf "bench: baseline %s is not valid JSON: %s\n" path
          (Json.error_to_string e);
        exit 2
  in
  let num = function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | _ -> None
  in
  let base_sections =
    match Json.mem "sections" doc with
    | Some (Json.Obj secs) -> secs
    | _ -> []
  in
  (* a -jN leg means nothing where N exceeds the cores it ran on *)
  let max_jobs =
    match Option.bind (Json.mem "cores" doc) Json.int with
    | Some c -> min c cores
    | None -> cores
  in
  let current s name =
    match List.assoc_opt s !metrics with
    | Some cell -> List.assoc_opt name !cell
    | None -> None
  in
  let compared = ref 0 and skipped = ref 0 and missing = ref 0 and regressions = ref 0 in
  Format.printf "@.";
  List.iter
    (fun (sec, fields) ->
      match fields with
      | Json.Obj fields ->
          List.iter
            (fun (name, v) ->
              let key = sec ^ "/" ^ name in
              match num v with
              | None -> ()
              | Some base -> (
                  match jobs_of_key name, gate_of name ~base, current sec name with
                  | Some j, _, _ when j > max_jobs ->
                      incr skipped;
                      Format.printf "skipped %s: more jobs than %d core(s)@." key max_jobs
                  | _, None, _ -> ()
                  | _, Some _, None ->
                      incr missing;
                      Printf.eprintf "bench: MISSING %s: in the baseline, not in this run\n" key
                  | _, Some gate, Some cur ->
                      incr compared;
                      if regressed gate ~base ~cur then begin
                        incr regressions;
                        Printf.eprintf "bench: REGRESSION %s: %.6g -> %.6g (%+.0f%%)\n" key
                          base cur
                          ((cur -. base) /. base *. 100.)
                      end))
            fields
      | _ -> ())
    base_sections;
  Format.printf
    "against %s (threshold %.0f%%): %d compared, %d skipped, %d missing, %d regressed@."
    path threshold !compared !skipped !missing !regressions;
  if !regressions + !missing > 0 then exit 1

(* ---- the timing discipline ---------------------------------------- *)

(* Every timed leg goes through [measure].  A leg's sides run in
   rounds, one sample per side per round, and the side that goes first
   rotates: whichever sample runs first in a round runs measurably
   slower.  Before each sample the helper sets the side's job count,
   runs one major collection and starts that pool, so no sample pays
   for garbage an earlier sample left or for pool start-up.  A -j 2 or
   -j 4 sample thus runs on freshly started domains, as one dfsm
   command does.  Each run gets one untimed warm-up call first (the
   sides of a -j sweep share one run). *)

let rounds () = if !smoke then 5 else 10

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), as bench/e2e/stat.ml computes them,
   so the spreads of the two benchmarks compare.  This is a copy: that
   file belongs to the end-to-end benchmark and changes only with it,
   so merging the two waits for a change to that benchmark. *)
let quartiles xs =
  let data = Array.copy xs in
  Array.sort compare data;
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

type 'a side = {
  times : float array;  (* seconds, one sample per round *)
  median : float;
  q1 : float;
  q3 : float;
  bytes : float;  (* the least [alloc] counted in one round *)
  last : 'a;  (* the last round's result *)
}

(* [measure sides] times each [(jobs, run)] side; [alloc] is the
   allocation probe wrapped around every sample. *)
let measure ?(alloc = Obs.Allocs.bytes_of) sides =
  let sides = Array.of_list sides in
  let n = Array.length sides in
  let sample (jobs, run) =
    Par.set_jobs jobs;
    Gc.major ();
    if jobs > 1 then ignore (Par.map Fun.id [| 0; 1 |]);
    let t0 = Unix.gettimeofday () in
    let r, bytes = alloc run in
    (Some r, Unix.gettimeofday () -. t0, bytes)
  in
  let last = Array.make n None in
  Array.iteri
    (fun i side ->
      if i = 0 || snd side != snd sides.(i - 1) then
        let r, _, _ = sample side in
        last.(i) <- r)
    sides;
  let times = Array.make_matrix n (rounds ()) 0. and bytes = Array.make n infinity in
  for i = 0 to rounds () - 1 do
    for k = 0 to n - 1 do
      let s = (i + k) mod n in
      let r, t, b = sample sides.(s) in
      last.(s) <- r;
      times.(s).(i) <- t;
      bytes.(s) <- Float.min bytes.(s) b
    done
  done;
  Par.set_jobs ambient;
  Array.init n (fun s ->
      let q1, median, q3 = quartiles times.(s) in
      { times = times.(s); median; q1; q3; bytes = bytes.(s); last = Option.get last.(s) })

(* The verdict on side [s] against [base]:
   - better / worse: one side is faster in at least 9/10 of the
     rounds, and the medians differ by more than [base]'s quartile
     distance;
   - same: the medians differ by less than both sides' quartile
     distances, and both of those are under 5% of [base]'s median;
   - unresolved: anything else. *)
let verdict ~base s =
  let n = Array.length base.times in
  let wins a b =
    Array.fold_left ( + ) 0 (Array.map2 (fun x y -> if x < y then 1 else 0) a.times b.times)
  in
  let spread x = x.q3 -. x.q1 and gap = s.median -. base.median in
  if 10 * wins s base >= 9 * n && -.gap > spread base then "better"
  else if 10 * wins base s >= 9 * n && gap > spread base then "worse"
  else if
    Float.abs gap < Float.min (spread base) (spread s)
    && Float.max (spread base) (spread s) < 0.05 *. base.median
  then "same"
  else "unresolved"

(* Record a ratio of [s] against [base], with the verdict on the two. *)
let ratio ~section key ~base s value =
  let v = verdict ~base s in
  record ~section key value;
  verdicts := (section ^ "/" ^ key, v) :: !verdicts;
  Format.printf "  %-28s %10.4g  %s@." key value v

(* Print what one round of a leg is, then record and print each side's
   median round time in milliseconds under its key. *)
let report ~section round keys m =
  Format.printf "%s; median [quartiles] of %d rounds:@." round (rounds ());
  List.iteri
    (fun i key ->
      let ms t = t *. 1000. in
      Format.printf "  %-28s %10.4g  [%.4g, %.4g]@." key (ms m.(i).median) (ms m.(i).q1)
        (ms m.(i).q3);
      record ~section key (ms m.(i).median))
    keys

(* One leg of a section's table: sides [(key, run)] at the ambient job
   count.  With [~bytes] (the allocation probe) every side also records
   the least it allocated in a round, under its key with "-bytes" in
   place of "-ms", and runs at -j 1: allocation on pool domains does
   not show in the caller's GC counters. *)
let leg ~section ?bytes round sides =
  let jobs = if Option.is_some bytes then 1 else ambient in
  let m = measure ?alloc:bytes (List.map (fun (_, run) -> (jobs, run)) sides) in
  report ~section round (List.map fst sides) m;
  if Option.is_some bytes then
    List.iteri
      (fun i (key, _) ->
        let key = Filename.chop_suffix key "-ms" ^ "-bytes" in
        Format.printf "  %-28s %10.0f@." key m.(i).bytes;
        record ~section key m.(i).bytes)
      sides;
  m

let repeat n f () = for _ = 1 to n do ignore (f ()) done

(* The ambient job count joins -j 1, 2 and 4, so a sweep also measures
   what the other legs run at (RESILIENCE reads chaos-s off it). *)
let sweep_jobs = List.sort_uniq compare [ 1; 2; 4; ambient ]

(* A -j sweep: [run] at each of [sweep_jobs] in one leg, recording
   [key j] per side, the speedup [speedup j] over -j 1, and under
   [identical] whether every side's last result renders byte-identical
   under [show] (the determinism contract). *)
let jobs_sweep ~section ~key ~speedup ~identical ~show round run =
  let m = measure (List.map (fun j -> (j, run)) sweep_jobs) in
  report ~section round (List.map key sweep_jobs) m;
  List.iteri
    (fun i j ->
      if j = 1 then record ~section (speedup j) 1.
      else ratio ~section (speedup j) ~base:m.(0) m.(i) (m.(0).median /. m.(i).median))
    sweep_jobs;
  let same = Array.for_all (fun s -> show s.last = show m.(0).last) m in
  Format.printf "  byte-identical=%b@.@." same;
  record ~section identical (if same then 1. else 0.);
  if not same then Format.printf "  *** %s DETERMINISM VIOLATION in %s ***@." section identical;
  m

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* ================= figure/table reproduction ====================== *)

let fig1 () =
  section "FIG1 -- Breakdown of 5925 Bugtraq vulnerabilities (Figure 1)";
  let db = Vulndb.Synth.generate ~seed:20021130 in
  Format.printf "%a@." Vulndb.Stats.pp_breakdown db;
  Format.printf "reproduction check: rounded shares match the paper = %b@."
    (Vulndb.Stats.matches_paper db)

let tab1 () =
  section "TAB1 -- One mechanism, three categories (Table 1)";
  List.iter
    (fun (r : Vulndb.Report.t) ->
       Format.printf "#%-6d %s@.        elementary activity: %s@.        assigned category:   %s@.@."
         r.Vulndb.Report.id r.Vulndb.Report.title
         (match r.Vulndb.Report.elementary_activity with Some a -> a | None -> "?")
         (Vulndb.Category.to_string r.Vulndb.Report.category))
    Vulndb.Seed_data.table1;
  Format.printf
    "formalised: one exploit run through the generic three-activity chain drives a \
     hidden path at every activity --@.each is an independent classification point:@.@.";
  List.iter
    (fun (activity, bugtraq, category, hidden) ->
       Format.printf "  %-70s #%-5d %-28s hidden-path=%b@."
         (Apps.Int_overflow_pattern.activity_description activity)
         bugtraq
         (Vulndb.Category.to_string category)
         hidden)
    (Apps.Int_overflow_pattern.ambiguity_rows ());
  Format.printf "@.the buffer-overflow family (#6157 / #5960 / #4479):@.@.";
  List.iter
    (fun (activity, bugtraq, category, hidden) ->
       Format.printf "  %-70s #%-5d %-28s hidden-path=%b@."
         (Apps.Buffer_overflow_pattern.activity_description activity)
         bugtraq
         (Vulndb.Category.to_string category)
         hidden)
    (Apps.Buffer_overflow_pattern.ambiguity_rows ());
  Format.printf "@.the format-string family (#1387 / #2210 / #2264):@.@.";
  List.iter
    (fun (activity, bugtraq, category, hidden) ->
       Format.printf "  %-70s #%-5d %-28s hidden-path=%b@."
         (Apps.Format_string_pattern.activity_description activity)
         bugtraq
         (Vulndb.Category.to_string category)
         hidden)
    (Apps.Format_string_pattern.ambiguity_rows ());
  Format.printf
    "@.three categories for one flaw mechanism => the code path has (at least) three \
     elementary activities -- Observation 1@."

let fig2 () =
  section "FIG2 -- The primitive FSM (Figure 2)";
  let pfsm =
    Pfsm.Primitive.make ~name:"pFSM" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"accept an index x"
      ~spec:(Pfsm.Predicate.between Pfsm.Predicate.Self ~low:0 ~high:100)
      ~impl:
        (Pfsm.Predicate.Cmp
           (Pfsm.Predicate.Le, Pfsm.Predicate.Self, Pfsm.Predicate.Lit (Pfsm.Value.Int 100)))
  in
  Format.printf "%a@.@." Pfsm.Pretty.pp_pfsm pfsm;
  Format.printf "%-10s %s@." "object" "transition path";
  List.iter
    (fun x ->
       let v = Pfsm.Primitive.run pfsm ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int x) in
       Format.printf "%-10d %a@." x Pfsm.Primitive.pp_verdict v)
    [ 50; 101; -5 ];
  print_newline ();
  print_string (Pfsm.Dot.of_primitive pfsm)

let table_app name = Option.get (Exploit.Table.find name)

(* A figure's model is the one the application's exploit case
   attacks, analysed under that exploit and its first benign input. *)
let figure name =
  let app = table_app name in
  let exploit = app.exploit.run () in
  let benign =
    List.find (fun (c : Exploit.Table.case) -> c.expected = Apps.Outcome.Normal) app.cases
  in
  (Lazy.force exploit.model, [ exploit.scenario; (benign.run ()).scenario ])

let run_model_section ~title name =
  let model, scenarios = figure name in
  section title;
  Format.printf "%a@." Pfsm.Pretty.pp_model model;
  let report = Pfsm.Analysis.analyze model ~scenarios in
  Format.printf "%a@." Pfsm.Pretty.pp_report report;
  Format.printf "simulation rows:@.%a@." Exploit.Driver.pp_rows
    (Exploit.Driver.rows (table_app name))

let fig3 () =
  run_model_section
    ~title:"FIG3 -- Sendmail signed integer overflow, Bugtraq #3163 (Figure 3)" "sendmail"

let fig4 () =
  run_model_section
    ~title:"FIG4 -- NULL HTTPD heap overflow, #5774 and the new #6255 (Figure 4)"
    "nullhttpd";
  (match Discovery.Differential.rediscover_6255 () with
   | Some finding ->
       Format.printf "@.new vulnerability discovered while modeling the known one:@.%a@."
         Discovery.Finding.pp finding
   | None -> Format.printf "@.discovery sweep found nothing (unexpected)@.")

let fig5 () =
  run_model_section ~title:"FIG5 -- xterm log file race condition (Figure 5)" "xterm";
  Format.printf "@.schedule exploration: %d interleavings, winners:@."
    Apps.Xterm.total_interleavings;
  List.iter
    (fun (v : Apps.Outcome.t Osmodel.Scheduler.verdict) ->
       Format.printf "  %s@."
         (String.concat "  ->  " v.Osmodel.Scheduler.schedule))
    (Apps.Xterm.run_race { Apps.Xterm.open_nofollow = false })

let fig6 () =
  run_model_section ~title:"FIG6 -- Solaris rwall arbitrary file corruption (Figure 6)"
    "rwall"

let fig7 () =
  run_model_section
    ~title:"FIG7 -- IIS superfluous filename decoding, Bugtraq #2708 (Figure 7)" "iis";
  Format.printf "@.companion [21] models (classified in Table 2):@.";
  Format.printf "%a@." Exploit.Driver.pp_rows
    (List.concat_map
       (fun name -> Exploit.Driver.rows (table_app name))
       [ "ghttpd"; "rpcstatd" ])

let all_models () =
  List.map
    (fun (title, name) -> (title, (table_app name).model ()))
    [ ("Sendmail Signed Integer Overflow (Fig. 3)", "sendmail");
      ("NULL HTTPD Heap Overflow (Fig. 4)", "nullhttpd");
      ("Rwall File Corruption (Fig. 6)", "rwall");
      ("IIS Filename Decoding (Fig. 7)", "iis");
      ("Xterm File Race Condition (Fig. 5)", "xterm");
      ("GHTTPD Buffer Overflow on Stack [21]", "ghttpd");
      ("rpc.statd format string vulnerability [21]", "rpcstatd") ]

let fig8 () =
  section "FIG8 -- The three generic pFSM types (Figure 8)";
  List.iter
    (fun kind ->
       Format.printf "%-32s: %s@."
         (Pfsm.Taxonomy.to_string kind)
         (Pfsm.Taxonomy.description kind))
    Pfsm.Taxonomy.all;
  Format.printf "@.pFSMs per type across all seven models:@.";
  let totals = Hashtbl.create 3 in
  List.iter
    (fun (_, model) ->
       List.iter
         (fun (kind, cells) ->
            let current = Option.value ~default:0 (Hashtbl.find_opt totals kind) in
            Hashtbl.replace totals kind (current + List.length cells))
         (Pfsm.Analysis.taxonomy_matrix model))
    (all_models ());
  List.iter
    (fun kind ->
       Format.printf "  %-32s %d@." (Pfsm.Taxonomy.to_string kind)
         (Option.value ~default:0 (Hashtbl.find_opt totals kind)))
    Pfsm.Taxonomy.all

let tab2 () =
  section "TAB2 -- Types of pFSMs per vulnerability (Table 2)";
  List.iter
    (fun (name, model) ->
       Format.printf "%s@.%a@." name Pfsm.Pretty.pp_matrix
         (Pfsm.Analysis.taxonomy_matrix model))
    (all_models ())

let observations () =
  section "OBS -- the three Observations of Section 3.2, counted over all models";
  let metrics = List.map (fun (_, m) -> Pfsm.Metrics.of_model m) (all_models ()) in
  Format.printf "%a@." Pfsm.Metrics.pp_table metrics;
  Format.printf
    "Observation 1 (>=2 elementary activities)            holds on %d/%d models@."
    (List.length (List.filter Pfsm.Metrics.observation1_holds metrics))
    (List.length metrics);
  Format.printf
    "Observation 2 (multiple operations/objects)          holds on %d/%d models@."
    (List.length (List.filter Pfsm.Metrics.observation2_holds metrics))
    (List.length metrics);
  Format.printf
    "Observation 3 (a predicate per elementary activity)  holds on %d/%d models@."
    (List.length (List.filter Pfsm.Metrics.observation3_holds metrics))
    (List.length metrics)

let verification () =
  section "VERIFY -- exhaustive impl=>spec checking on finite domains";
  let report name pfsm domain =
    Format.printf "  %-52s %a@." name Pfsm.Verify.pp_result
      (Pfsm.Verify.verify pfsm domain)
  in
  let sendmail = Apps.Sendmail.model (Apps.Sendmail.setup ()) in
  (match Pfsm.Model.all_pfsms sendmail with
   | [ (_, p1); (_, p2); (_, p3) ] ->
       report "Sendmail pFSM1 (str_x representable)" p1
         (Pfsm.Verify.Strings
            (List.map string_of_int
               [ 0; 100; 2147483647; 2147483648; 4294966272 ]));
       report "Sendmail pFSM2 (0 <= x <= 100) on [-2048, 2048]" p2
         (Pfsm.Verify.Int_range { low = -2048; high = 2048 });
       report "Sendmail pFSM2 on int32 edges" p2 Pfsm.Verify.Int_edges;
       report "Sendmail pFSM3 (GOT entry unchanged)" p3
         (Pfsm.Verify.Int_range { low = 0x08000000; high = 0x08000200 });
       report "Sendmail pFSM2 secured: verified" (Pfsm.Primitive.secured p2)
         (Pfsm.Verify.Int_range { low = -2048; high = 2048 })
   | _ -> ());
  let iis = Apps.Iis.model (Apps.Iis.setup ()) in
  (match Pfsm.Model.all_pfsms iis with
   | [ (_, p1) ] ->
       report "IIS pFSM1 on the traversal corpus" p1
         (Pfsm.Verify.Strings Discovery.Domain_gen.traversal_strings);
       report "IIS pFSM1 on alphabet {., /, %, 2, f, a} up to length 6" p1
         (Pfsm.Verify.Alphabet_strings { alphabet = "./%2fa"; max_len = 6 });
       Format.printf
         "  (the shortest double-decode witness, \"..%%252f\", is 7 characters: bounded \
          exhaustion at 6 passes while the corpus refutes -- the limit of \
          finite-domain certificates)@."
   | _ -> ())

let ablation_aslr () =
  section "ABLATION -- address-space randomisation vs the four memory exploits";
  Format.printf "attacker payloads built against the un-randomised layout, victims \
                 slid with seed %d (GOT deliberately not slid, as pre-PIE):@.@."
    Exploit.Ablation.aslr_seed;
  Format.printf "%a@." Exploit.Ablation.pp_rows (Exploit.Ablation.rows ());
  Format.printf "control-flow hijacks prevented by ASLR: %b@."
    (Exploit.Ablation.control_flow_hijacks_prevented ());
  Format.printf "(crashes and stray writes remain -- randomisation degrades, it does \
                 not remove, the vulnerability)@."

let auto_tool () =
  section "AUTO -- predicate extraction from source (the conclusion's future work)";
  let show label func object_var spec domain =
    match Minic.Extract.impl_predicate func ~object_var with
    | None -> Format.printf "  %-36s guard not extractable@." label
    | Some impl ->
        let pfsm =
          Pfsm.Primitive.make ~name:"auto" ~kind:Pfsm.Taxonomy.Content_attribute_check
            ~activity:label ~spec ~impl
        in
        Format.printf "  %-36s impl = %-28s %a@." label
          (Pfsm.Predicate.to_string impl)
          Pfsm.Verify.pp_result
          (Pfsm.Verify.verify pfsm domain)
  in
  let int_domain = Pfsm.Verify.Int_range { low = -2048; high = 2048 } in
  let str_domain = Pfsm.Verify.Strings (List.init 260 (fun n -> String.make n 'a')) in
  show "tTflag (as shipped)" Minic.Corpus.tTflag_vulnerable Minic.Corpus.tTflag_object
    Minic.Corpus.tTflag_spec int_domain;
  show "tTflag (fixed)" Minic.Corpus.tTflag_fixed Minic.Corpus.tTflag_object
    Minic.Corpus.tTflag_spec int_domain;
  show "Log (as shipped)" Minic.Corpus.log_vulnerable Minic.Corpus.log_object
    Minic.Corpus.log_spec str_domain;
  show "Log (off-by-one fix)" Minic.Corpus.log_off_by_one Minic.Corpus.log_object
    Minic.Corpus.log_spec str_domain;
  show "Log (correct fix)" Minic.Corpus.log_fixed Minic.Corpus.log_object
    Minic.Corpus.log_spec str_domain;
  Format.printf
    "@.(implementation predicates read straight off the mini-C source; the analyst \
     supplies only the spec)@."

let protection_matrix () =
  section "MATRIX -- which protection stops which exploit (Section 6's discussion)";
  Format.printf "%a@." Exploit.Matrix.pp ();
  Format.printf
    "section-6 claims hold (StackGuard blind to %%n, safe unlink heap-only, the      0.5.1 patch missing #6255, ASLR degrading not removing): %b@."
    (Exploit.Matrix.section6_claims_hold ())

let baselines () =
  section "BASELINES -- the related-work analyses, derived from our models (Section 2)";
  Format.printf
    "Ortalo-style Markov METF (mean effort to security failure), retry probability \
     0.2 per hidden obstacle:@.@.";
  let metf_case name model scenario =
    let fmt_effort = function
      | Some e -> Printf.sprintf "%.1f effort units" e
      | None -> "infinite (exploit foiled)"
    in
    Format.printf "  %-56s %s@." name
      (fmt_effort (Baselines.Markov.metf_of_model ~retry:0.2 model ~scenario));
    List.iter
      (fun op_name ->
         Format.printf "    secured %-50s %s@." op_name
           (fmt_effort
              (Baselines.Markov.metf_of_model ~retry:0.2
                 (Pfsm.Model.secure_operation model ~op_name)
                 ~scenario)))
      (Pfsm.Model.operation_names model)
  in
  List.iter
    (fun (label, name) ->
       let model, scenarios = figure name in
       metf_case label model (List.hd scenarios))
    [ ("Sendmail #3163", "sendmail"); ("NULL HTTPD #6255", "nullhttpd") ];
  Format.printf
    "@.(the Markov metric needs the retry probability as an input; the pFSM model \
     needs only the predicates -- the contrast Section 2 draws)@.@.";
  Format.printf "Sheyner-style attack graphs from the observed traces:@.@.";
  List.iter
    (fun (name, report) ->
       let g = Baselines.Attack_graph.of_report report in
       let cut =
         match Baselines.Attack_graph.min_hidden_cut g with
         | Some c -> string_of_int (List.length c)
         | None -> "-"
       in
       Format.printf
         "  %-24s nodes=%-3d edges=%-3d hidden=%-2d reachable=%-5b paths=%-2d \
          min-cut=%s lemma-agrees=%b@."
         name
         (List.length (Baselines.Attack_graph.nodes g))
         (List.length (Baselines.Attack_graph.edges g))
         (List.length (Baselines.Attack_graph.hidden_edges g))
         (Baselines.Attack_graph.exploit_reachable g)
         (List.length (Baselines.Attack_graph.attack_paths g ~max_paths:50))
         cut
         (Baselines.Attack_graph.agrees_with_lemma g))
    (List.map
       (fun (label, name) ->
          let model, scenarios = figure name in
          (label, Pfsm.Analysis.analyze model ~scenarios))
       [ ("Sendmail #3163", "sendmail"); ("NULL HTTPD #6255", "nullhttpd");
         ("xterm race", "xterm"); ("IIS #2708", "iis") ])

let ablation_interleavings () =
  section "ABLATION -- interleaving explosion (why races need exhaustive exploration)";
  Format.printf "%-28s %14s@." "logger x attacker steps" "interleavings";
  List.iter
    (fun (a, b) ->
       Format.printf "%-28s %14d@."
         (Printf.sprintf "%d x %d" a b)
         (Osmodel.Scheduler.interleaving_count a b))
    [ (3, 2); (4, 3); (6, 4); (8, 6); (10, 8); (12, 10) ];
  Format.printf "@.three processes (multinomial):@.";
  List.iter
    (fun lens ->
       Format.printf "%-28s %14d@."
         (String.concat " x " (List.map string_of_int lens))
         (Osmodel.Scheduler.interleaving_count_n lens))
    [ [ 3; 2; 1 ]; [ 3; 2; 2 ]; [ 4; 3; 2 ]; [ 5; 4; 3 ] ];
  Format.printf
    "@.the xterm experiment (3 x 2 = 10 schedules, 1 winner) is tractable; the \
     growth explains why real TOCTTOU bugs hide from stress testing@."

let races_bench () =
  section "RACE -- static TOCTTOU scan + replay confirmation (plain vs POR)";
  let budget = Racecheck.Driver.default_budget in
  let explored st =
    match st with
    | Racecheck.Driver.Confirmed { explored; _ }
    | Racecheck.Driver.Refuted { explored }
    | Racecheck.Driver.Unresolved { explored; _ } -> explored
  in
  let sums ir =
    List.fold_left
      (fun (e, u) c ->
        ( e + explored c.Racecheck.Driver.status,
          u
          + match c.Racecheck.Driver.status with
            | Racecheck.Driver.Unresolved _ -> 1
            | _ -> 0 ))
      (0, 0) ir.Racecheck.Driver.findings
  in
  let m =
    measure
      [ (ambient, fun () -> Racecheck.Driver.analyze ());
        (ambient, fun () -> Racecheck.Driver.analyze ~por:true ()) ]
  in
  Format.printf "budget: %d replayed schedules per finding@.@." budget;
  Format.printf "%-16s %9s %8s | %15s %10s | %15s %10s@." "instance" "findings"
    "total" "plain explored" "unresolved" "por explored" "unresolved";
  List.iter2
    (fun ip ir ->
      let pe, pu = sums ip and re, ru = sums ir in
      Format.printf "%-16s %9d %8d | %15d %10d | %15d %10d@."
        ip.Racecheck.Driver.instance
        (List.length ip.Racecheck.Driver.findings)
        ip.Racecheck.Driver.total pe pu re ru;
      let slug =
        String.map (function '+' -> '_' | c -> c) ip.Racecheck.Driver.instance
      in
      record ~section:"RACE" (slug ^ "_plain_explored") (float_of_int pe);
      record ~section:"RACE" (slug ^ "_por_explored") (float_of_int re))
    m.(0).last.Racecheck.Driver.instances m.(1).last.Racecheck.Driver.instances;
  Format.printf
    "@.plain: %.4g s (unresolved findings above), por: %.4g s (every window \
     drained); medians of %d rounds of one analysis each@."
    m.(0).median m.(1).median (rounds ());
  record ~section:"RACE" "plain_s" m.(0).median;
  record ~section:"RACE" "por_s" m.(1).median

let trend_extension () =
  section "TREND -- report volume per year (synthetic population; extension)";
  let db = Vulndb.Synth.generate ~seed:20021130 in
  Format.printf "all reports:@.%a@." Vulndb.Trend.pp_series (Vulndb.Trend.per_year db);
  Format.printf "studied family:@.%a@." Vulndb.Trend.pp_series
    (Vulndb.Trend.family_per_year db);
  Format.printf "remote share: %.1f%%@." (Vulndb.Query.remote_share db)

let lemma () =
  section "LEMMA -- securing any one operation foils the exploit (Section 6)";
  Format.printf "%a@." Exploit.Protection.pp_entries (Exploit.Protection.entries ());
  Format.printf "lemma holds in model and simulation: %b@."
    (Exploit.Protection.lemma_holds ())

let consistency () =
  section "CONSISTENCY -- model verdicts vs simulated executions";
  let entries = Exploit.Consistency.check_all () in
  Format.printf "%a@." Exploit.Consistency.pp_entries entries;
  Format.printf "%d/%d cases consistent@."
    (List.length (List.filter (fun e -> e.Exploit.Consistency.consistent) entries))
    (List.length entries)

let faults () =
  section "FAULTS -- consistency matrix resilience under fault plans";
  let reports = Exploit.Fault_matrix.run () in
  List.iter (Format.printf "%a@." Exploit.Fault_matrix.pp_report) reports;
  Format.printf "%a@." Exploit.Fault_matrix.pp_grid reports;
  Format.printf
    "benign plans consistent: %b; no fail-open divergence: %b; seed-stable: %b@."
    (Exploit.Fault_matrix.all_benign_ok reports)
    (Exploit.Fault_matrix.no_divergence reports)
    (Exploit.Fault_matrix.stable ())

let lint_sweep () =
  section "LINT -- abstract-interpretation linter over the mini-C corpus";
  let rows = Staticcheck.Linter.corpus_sweep () in
  Format.printf "%a@." Staticcheck.Linter.pp_sweep rows

(* [chaos] is PAR's chaos-smoke sweep: chaos-s is its side at the
   ambient job count. *)
let resilience chaos =
  section "RESILIENCE -- supervision overhead and the chaos harness";
  (* Like for like: [corpus_sweep] maps over the Par pool, and the
     supervised side speculates on it too, as [dfsm lint --corpus]
     runs it. *)
  let m =
    leg ~section:"RESILIENCE" "fault-free corpus sweep, one round = 64 sweeps per side"
      [ ("sweep-raw-ms", repeat 64 Staticcheck.Linter.corpus_sweep);
        ("sweep-supervised-ms", repeat 64 Staticcheck.Linter.supervised_sweep) ]
  in
  ratio ~section:"RESILIENCE" "wrapper-overhead-pct" ~base:m.(0) m.(1)
    ((m.(1).median -. m.(0).median) /. m.(0).median *. 100.);
  Format.printf "  (target: < 5%% on the fault-free path)@.@.";
  let here = List.assoc ambient (List.combine sweep_jobs (Array.to_list chaos)) in
  let report = here.last in
  record ~section:"RESILIENCE" "chaos-s" here.median;
  let items =
    List.fold_left
      (fun acc (r : Chaos.plan_run) ->
         List.fold_left (fun acc (l : Chaos.leg) -> acc + l.Chaos.expected_items) acc
           r.Chaos.legs)
      0 report.Chaos.runs
  in
  Format.printf
    "chaos harness: %d plans x 3 legs (%d supervised items), chaos-s %.4g at -j %d \
     (PAR chaos-smoke); contract ok = %b@.@."
    (List.length report.Chaos.runs) items here.median ambient (Chaos.ok report);
  record ~section:"RESILIENCE" "chaos-ok" (if Chaos.ok report then 1. else 0.);
  (* the costliest plan on its own: short-recv's 7-byte clamps spin
     three NULL HTTPD lint candidates to the interpreter's loop bound
     (300,608 injected faults per run) *)
  ignore
    (leg ~section:"RESILIENCE" "chaos short-recv plan alone, one round = one run"
       [ ("chaos-short-recv-ms", fun () -> Chaos.run ~plans:[ Fault.Catalog.short_recv ] ()) ])

(* ================= PAR: domain pool + analysis memo =============== *)

(* Every batch path at -j 1 vs -j 2 / -j 4, with a built-in
   byte-identical-output assertion (the determinism contract), plus
   the analysis-memo hit rates.  The -j speedups mean something only
   up to the host's core count, which the JSON header records. *)
let par_bench () =
  section "PAR -- deterministic domain pool and the analysis memo";
  Format.printf "hardware threads (recommended domain count): %d@.@." cores;
  let batch name round ~show run =
    jobs_sweep ~section:"PAR" ~key:(Printf.sprintf "%s-j%d-ms" name)
      ~speedup:(Printf.sprintf "%s-j%d-speedup" name) ~identical:(name ^ "-identical") ~show
      (name ^ ", one round = " ^ round) run
  in
  (* a meatier lint batch than the 7-variant corpus: Progen functions *)
  let gen_funcs = List.init 512 (fun i -> Staticcheck.Progen.func ~seed:(1000 + i)) in
  ignore
    (batch "lint-progen" "one lint of 512 Progen functions"
       ~show:(fun rs ->
         String.concat ";"
           (List.map
              (fun r ->
                Printf.sprintf "%s=%d" r.Staticcheck.Linter.func.Minic.Ast.name
                  (List.length r.Staticcheck.Linter.findings))
              rs))
       (fun () -> Staticcheck.Linter.lint_program gen_funcs));
  (* long request paths make [Model.run] scan kilobytes through the
     double-decode predicates *)
  let filler n = String.concat "" (List.init n (fun _ -> "..%252f")) in
  let iis_model = Apps.Iis.model (Apps.Iis.setup ()) in
  let analyze_scenarios =
    List.init 128 (fun i ->
        Apps.Iis.scenario
          ~path:(Printf.sprintf "/%sdir%d%%252ffile%d" (filler 400) i (i * 7)))
  in
  ignore
    (batch "analyze-fanout" "one analysis of 128 IIS scenarios with 2.8 KB paths"
       ~show:(fun rep ->
         Format.asprintf "%d:%a" rep.Pfsm.Analysis.scenarios_run
           (Format.pp_print_list (fun ppf (f : Pfsm.Analysis.pfsm_finding) ->
                Format.fprintf ppf "%s=%d" f.Pfsm.Analysis.operation
                  f.Pfsm.Analysis.hidden_hits))
           rep.Pfsm.Analysis.findings)
       (fun () -> Pfsm.Analysis.analyze ~par:true iis_model ~scenarios:analyze_scenarios));
  ignore
    (batch "synth-generate" "2 generations of the 5925-report database"
       ~show:Vulndb.Csv.of_database
       (fun () ->
         ignore (Vulndb.Synth.generate ~seed:20021130);
         Vulndb.Synth.generate ~seed:20021130));
  ignore
    (batch "fault-matrix" "one matrix over all 8 fault plans"
       ~show:(fun reports ->
         String.concat ";"
           (List.map (Format.asprintf "%a" Exploit.Fault_matrix.pp_report) reports))
       (fun () -> Exploit.Fault_matrix.run ~plans:Fault.Catalog.all ()));
  let chaos =
    batch "chaos-smoke" "one chaos run over the smoke plans" ~show:Chaos.to_json
      (fun () -> Chaos.run ~plans:Fault.Catalog.smoke ())
  in
  (* the memo: repeated analysis of one model over one scenario set —
     exactly the recurrence the fault matrix and chaos legs produce
     (same pair once per plan per leg).  [analyze] vs [analyze ~memo]
     on the same inputs; the memoized pass pays two digests up front
     and table lookups thereafter, while a miss scans the long paths.
     Every round starts from an empty memo, so its five passes make
     one miss and four hits per scenario. *)
  let memo_scenarios =
    List.init 24 (fun i ->
        Apps.Iis.scenario ~path:(Printf.sprintf "/%s/dir%d/cmd.exe" (filler 400) i))
  in
  let passes memo () =
    Pfsm.Analysis.memo_reset ();
    let before = Pfsm.Analysis.memo_stats () in
    for _ = 1 to 5 do
      ignore (Pfsm.Analysis.analyze ~memo iis_model ~scenarios:memo_scenarios)
    done;
    let after = Pfsm.Analysis.memo_stats () in
    { Pfsm.Analysis.lookups = after.lookups - before.lookups;
      hits = after.hits - before.hits;
      misses = after.misses - before.misses }
  in
  let m =
    leg ~section:"PAR" "analysis memo, one round = 5 passes over 24 IIS scenarios per side"
      [ ("memo-plain-ms", passes false); ("memo-memoized-ms", passes true) ]
  in
  ratio ~section:"PAR" "memo-speedup" ~base:m.(0) m.(1) (m.(0).median /. m.(1).median);
  let rate (s : Pfsm.Analysis.memo_stats) =
    if s.lookups = 0 then 0. else float_of_int s.hits /. float_of_int s.lookups
  in
  let show_memo what (s : Pfsm.Analysis.memo_stats) =
    Format.printf "%s: %d lookups, %d hits, %d misses (hit rate %.0f%%)@." what s.lookups
      s.hits s.misses (rate s *. 100.)
  in
  show_memo "memoized round" m.(1).last;
  record ~section:"PAR" "memo-hit-rate" (rate m.(1).last);
  (* the chaos run's own counters, as surfaced in its report *)
  let cm = chaos.(0).last.Chaos.memo in
  show_memo "chaos (smoke) memo" cm;
  record ~section:"PAR" "chaos-memo-lookups" (float_of_int cm.lookups);
  record ~section:"PAR" "chaos-memo-hits" (float_of_int cm.hits);
  record ~section:"PAR" "chaos-memo-hit-rate" (rate cm);
  chaos

(* ================= OBS: tracing + metrics overhead ================ *)

(* The observability contract: spans over virtual time cost nothing
   when tracing is off and stay cheap when it is on (target < 5 % on
   the lint sweep).  Also exercises the wall-clock annotation mode the
   determinism-traced paths never use. *)
let obs_bench () =
  section "OBS -- tracing and metrics overhead over the lint sweep";
  let gen_funcs = List.init 48 (fun i -> Staticcheck.Progen.func ~seed:(2000 + i)) in
  let run () = Staticcheck.Linter.lint_program gen_funcs in
  let m =
    leg ~section:"OBS"
      "lint of 48 Progen functions, one round = 20 lints per side (tracing on: \
       start, lints, drain)"
      [ ("trace-off-ms", fun () -> repeat 20 run (); []);
        ( "trace-on-ms",
          fun () ->
            Obs.Trace.start ();
            repeat 20 run ();
            Obs.Trace.drain () ) ]
  in
  let overhead = (m.(1).median -. m.(0).median) /. m.(0).median *. 100. in
  ratio ~section:"OBS" "trace-overhead-pct" ~base:m.(0) m.(1) overhead;
  let events = List.length m.(1).last in
  Format.printf "  (target: < 5%% on the lint sweep; %d events, %d dropped)@." events
    (Obs.Trace.dropped ());
  record ~section:"OBS" "trace-events" (float_of_int events);
  record ~section:"OBS" "trace-overhead-ok" (if overhead < 5.0 then 1. else 0.);
  (* a median over the target counts as missing it only once resolved *)
  if overhead >= 5.0 && verdict ~base:m.(0) m.(1) = "worse" then
    Format.printf "  *** OBS OVERHEAD TARGET MISSED (%.1f%% >= 5%%) ***@." overhead;
  (* wall-clock annotation: opt-in, breaks byte-identity, bench-only *)
  Obs.Trace.set_wall_clock (Some Unix.gettimeofday);
  Obs.Trace.start ();
  ignore (run ());
  let annotated = Obs.Trace.drain () in
  Obs.Trace.set_wall_clock None;
  let with_wall =
    List.length
      (List.filter (fun e -> e.Obs.Trace.wall_us <> None) annotated)
  in
  Format.printf
    "@.wall-clock annotated pass: %d/%d events carry wall_us@.@." with_wall
    (List.length annotated);
  record ~section:"OBS" "wall-annotated-events" (float_of_int with_wall);
  (* the metrics layer is always on; a snapshot is the fold of every
     per-domain cell and should stay microscopic *)
  ignore
    (leg ~section:"OBS"
       (Printf.sprintf "metrics snapshot (%d metrics), one round = 1000 snapshots"
          (List.length (Obs.Metrics.snapshot ())))
       [ ("snapshot-ms", repeat 1000 Obs.Metrics.snapshot) ])

(* ================= SERVE: request loop throughput ================= *)

(* The serve loop end to end: a canned request script through
   [Server.run_script] at -j 1/2/4.  Requests/sec comes from wall
   time; p50/p99 per-request latency is over *virtual* time
   (completion tick minus admission tick), so the latency numbers are
   a pure function of the script and must agree at every job count —
   as must the whole response stream, byte for byte.  The script
   holds 10 distinct requests, all sent within its first two waves,
   so each run computes 10 requests and answers the other 110 from
   the server's response memo: past the first waves the leg times
   memo hits, not handlers. *)
let serve_bench () =
  section "SERVE -- supervised request loop (req/s, latency over virtual time)";
  let module S = Serve.Server in
  let n_work = 120 in
  (* a mixed script: lint / analyze / exploit across the app registry,
     flushed in queue-sized waves so nothing is shed *)
  let corpus = [| "tTflag (vulnerable)"; "Log (fixed)"; "Log (vulnerable)" |] in
  let apps = [| "sendmail"; "nullhttpd"; "rwall" |] in
  let line fields =
    Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) fields))
  in
  let req i =
    let pick a = a.(i / 4 mod Array.length a) in
    line
      (("id", Printf.sprintf "w%d" i)
       ::
       (match i mod 4 with
        | 0 -> [ ("kind", "lint"); ("target", pick corpus) ]
        | 1 -> [ ("kind", "analyze"); ("app", pick apps) ]
        | 2 -> [ ("kind", "exploit"); ("app", pick apps) ]
        | _ -> [ ("kind", "lint"); ("target", "corpus") ]))
  in
  let config = { S.default_config with S.capacity = 8 } in
  let script =
    List.concat_map
      (fun wave ->
        List.init 8 (fun k -> req ((wave * 8) + k)) @ [ line [ ("kind", "flush") ] ])
      (List.init (n_work / 8) Fun.id)
    @ [ line [ ("kind", "shutdown") ] ]
  in
  let m =
    jobs_sweep ~section:"SERVE" ~key:(Printf.sprintf "run-ms-j%d")
      ~speedup:(Printf.sprintf "speedup-j%d") ~identical:"identical"
      ~show:(fun (lines, s) ->
        String.concat "\n" (Json.to_string (S.summary_to_json s) :: lines))
      (Printf.sprintf "%d work requests, one round = one run of the script" n_work)
      (fun () -> S.run_script ~config script)
  in
  let _, summary = m.(0).last in
  List.iteri
    (fun i j ->
      let key = Printf.sprintf "req-per-sec-j%d" j in
      let rps = float_of_int summary.S.admitted /. m.(i).median in
      Format.printf "  %-28s %10.0f@." key rps;
      record ~section:"SERVE" key rps)
    sweep_jobs;
  let p50 = summary.S.latency_p50 and p99 = summary.S.latency_p99 in
  Format.printf
    "latency over virtual time: p50 %d ticks, p99 %d ticks (%d completed)@."
    p50 p99 summary.S.completed;
  record ~section:"SERVE" "latency-p50-vt" (float_of_int p50);
  record ~section:"SERVE" "latency-p99-vt" (float_of_int p99);
  record ~section:"SERVE" "admitted" (float_of_int summary.S.admitted);
  record ~section:"SERVE" "shed" (float_of_int summary.S.shed)

(* ================= STORE: persistent result store ================= *)

(* The cost model of the crash-consistent store over the lint corpus
   sweep: a cold pass pays one record commit per corpus entry, a warm
   pass replaces every analysis with a verified read, and a pass over
   a fully corrupted store pays verification + eviction + recompute +
   rewrite on every entry — the graceful-degradation worst case.  The
   store-less sweep is the baseline all three compare against. *)
let store_bench () =
  section "STORE -- persistent result store (cold / warm / corrupt-degraded)";
  let sweeps = 10 in
  let sweep () = ignore (Staticcheck.Linter.corpus_sweep ()) in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let dir = Filename.temp_file "dfsm-bench-store" ".d" in
  Sys.remove dir;
  let s = Store.Disk.open_ ~dir in
  let before = Store.Disk.stats () in
  (* the keys on disk: the record files' names *)
  let keys () =
    List.filter_map
      (fun rel -> Filename.chop_suffix_opt ~suffix:".rec" (Filename.basename rel))
      (Store.Disk.object_files s)
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Store.Handle.with_store (Some s) (fun () ->
          (* cold: evicting every record before a pass isolates the
             write path; a put makes no directory, and a fresh store
             per pass would add [open_]'s mkdir of [objects/] *)
          let corrupt_all () =
            List.iter (fun k -> Store.Disk.note_corrupt s ~key:k) (keys ())
          in
          (* corrupt-degraded: flip one byte of every record on disk,
             so each read fails verification and recomputes *)
          let tamper () =
            List.iter
              (fun k ->
                let path = Store.Disk.record_path s ~key:k in
                let img = In_channel.with_open_bin path In_channel.input_all in
                let b = Bytes.of_string img in
                let i = Bytes.length b - 1 in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                Out_channel.with_open_bin path (fun oc ->
                    Out_channel.output_bytes oc b))
              (keys ())
          in
          (* the cold side's warm-up call fills the store, and every
             pass leaves all seven records valid on disk *)
          let m =
            leg ~section:"STORE"
              (Printf.sprintf "corpus sweep, one round = %d passes per mode" sweeps)
              [ ("sweep-storeless-ms", repeat sweeps (fun () -> Store.Handle.with_store None sweep));
                ("sweep-cold-ms", repeat sweeps (fun () -> corrupt_all (); sweep ()));
                ("sweep-warm-ms", repeat sweeps sweep);
                ("sweep-corrupt-ms", repeat sweeps (fun () -> tamper (); sweep ())) ]
          in
          ratio ~section:"STORE" "warm-speedup" ~base:m.(0) m.(2)
            (m.(0).median /. m.(2).median);
          let st = Store.Disk.sub_stats (Store.Disk.stats ()) before in
          Format.printf
            "  totals: %d hits, %d misses, %d corrupt, %d repaired, %d writes@."
            st.Store.Disk.hits st.Store.Disk.misses st.Store.Disk.corrupt
            st.Store.Disk.repaired st.Store.Disk.writes;
          record ~section:"STORE" "repaired" (float_of_int st.Store.Disk.repaired)))

(* ================= PERF: data-representation before/after ========== *)

(* Each leg runs the retired representation (kept as an executable
   reference) against the production one over the same workload, and
   reports wall time plus this domain's allocated-bytes delta.  The
   legs also cross-check agreement, so a "win" from a divergent
   implementation records 0 and is visible.  Runtime housekeeping
   (heap chunk growth) occasionally lands a ~MB one-off allocation in
   whichever round triggers it; the least over the rounds is the
   stable, comparable figure. *)
let perf_bench () =
  section "PERF -- hot-path data representations, before/after";
  let pair name round before after =
    let m = leg ~section:"PERF" ~bytes:Obs.Allocs.bytes_of round [ before; after ] in
    ratio ~section:"PERF" (name ^ "-speedup") ~base:m.(0) m.(1) (m.(0).median /. m.(1).median);
    let agree = m.(0).last = m.(1).last in
    Format.printf "  agree=%b@.@." agree;
    record ~section:"PERF" (name ^ "-agree") (if agree then 1. else 0.)
  in

  (* POR sleep sets: int-list vs bitmask bookkeeping over a 3-process
     workload with both conflicting and commuting steps. *)
  let module Sch = Osmodel.Scheduler in
  let module E = Osmodel.Effect in
  let mk p i cell =
    Sch.step_e
      (Printf.sprintf "p%d.%d" p i)
      ~effects:[ E.writes (E.Mem cell) ]
      (fun (_ : unit ref) -> ())
  in
  let proc p cells = List.mapi (mk p) cells in
  let procs =
    [ proc 0 [ "x"; "y"; "x"; "z" ];
      proc 1 [ "y"; "u"; "x" ];
      proc 2 [ "v"; "w"; "y" ] ]
  in
  let drain schedules =
    Seq.fold_left (fun n sched -> n + List.length sched) 0 schedules
  in
  let preps = 50 in
  let por_leg enum () =
    let steps = ref 0 in
    for _ = 1 to preps do
      steps := !steps + drain (enum ~independent:E.independent procs)
    done;
    !steps
  in
  pair "por"
    (Printf.sprintf "POR sleep sets (3 processes), one round = %d drains: int lists vs bitmasks"
       preps)
    ("por-list-ms", por_leg Scheduler_ref.schedules_por)
    ("por-bitmask-ms", por_leg Sch.schedules_por);

  (* abstract interpreter: Smap environments vs slot arrays.  The
     corpus and Progen functions keep the legs honest on realistic
     shapes, but they are tiny (a handful of variables, one loop), so
     per-analyze fixed costs would drown the env representation.  The
     stress functions are what the slot refactor targets: many live
     variables joined/widened on every fixpoint round. *)
  let stress nvars =
    let open Minic.Ast in
    let v i = Printf.sprintf "v%d" i in
    let decls = List.init nvars (fun i -> Decl_int (v i, Int_lit i)) in
    let bumps =
      List.init nvars (fun i ->
          Assign (v i, Bin (Add, Var (v ((i + 1) mod nvars)), Int_lit 1)))
    in
    { name = Printf.sprintf "stress%d" nvars;
      params = [ Int_param "n"; Str_param "s" ];
      body =
        decls
        @ [ Decl_buf ("buf", 64);
            While
              ( Bin (Lt, Var "v0", Var "n"),
                bumps
                @ [ If
                      ( Bin (Lt, Var "v1", Int_lit 100),
                        [ Assign ("v2", Bin (Add, Var "v2", Int_lit 1)) ],
                        [ Assign ("v3", Bin (Sub, Var "v3", Int_lit 1)) ] );
                    Array_store ("tab", Var "v4", Var "v5");
                    Strcpy ("buf", Var "s") ] );
            Return (Var "v0") ] }
  in
  let funcs =
    List.map snd Minic.Corpus.all
    @ List.init 8 (fun i -> Staticcheck.Progen.func ~seed:(3000 + i))
    @ List.map stress [ 8; 12; 16; 24 ]
  in
  let config =
    { Staticcheck.Absint.default_config with
      arrays = [ ("tab", 32) ] }
  in
  let areps = 5 in
  let absint_leg analyze () =
    let raws = ref 0 in
    for _ = 1 to areps do
      List.iter
        (fun f ->
          raws := !raws + List.length (analyze ~config f).Staticcheck.Absint.raws)
        funcs
    done;
    !raws
  in
  pair "absint"
    (Printf.sprintf
       "abstract interpreter, one round = %d functions x %d reps: Smap environments \
        vs slot arrays"
       (List.length funcs) areps)
    ("absint-smap-ms", absint_leg (fun ~config f -> Absint_ref.analyze ~config f))
    ("absint-slots-ms", absint_leg (fun ~config f -> Staticcheck.Absint.analyze ~config f));

  (* the two costs of chaos's short-recv plan: mini-C loop iterations
     and injected-fault records.  The by-name tree walker lives only in
     test/ as an oracle, so these legs time the production side alone
     (EXPERIMENTS PERF has the figures of the implementations they
     replaced).  Bytes count minor-heap allocation only: whole-heap
     accounting of these runs shifts with collector phase from one
     process to the next. *)
  let spin () =
    (* ReadPOSTData's || loop with a silent peer: 100k iterations *)
    Minic.Corpus.run_read_post_data Minic.Corpus.read_post_data_buggy
      ~content_len:500 ~body:(String.make 100 'z')
  in
  let m =
    leg ~section:"PERF" ~bytes:Obs.Allocs.minor_bytes_of
      "mini-C interpreter, closure-compiled, one round = 100k loop iterations"
      [ ("interp-100k-iter-ms", spin) ]
  in
  Format.printf "  (diverged=%b)@." (m.(0).last = Minic.Interp.Diverged);
  let clamp () =
    snd
      (Fault.Hooks.run Fault.Catalog.short_recv (fun () ->
           for _ = 1 to 100_000 do
             ignore (Fault.Hooks.recv_request ~requested:1024 ~consumed:0)
           done))
  in
  let m =
    leg ~section:"PERF" ~bytes:Obs.Allocs.minor_bytes_of
      "fault events, typed and rendered lazily, one round = 100k clamped recvs"
      [ ("fault-record-100k-ms", clamp) ]
  in
  Format.printf "  (%d events)@." (List.length m.(0).last);
  (* process images: the exploit driver's rows run 23 simulations, each
     on a fresh Machine.Process.  A memory page is too large for the
     minor heap, so the bytes are Obs.Allocs.bytes_of's, which count
     direct major-heap allocation; minor_bytes_of would not see the
     images at all.  The round stays one pass, which its byte count
     pins. *)
  let m =
    leg ~section:"PERF" ~bytes:Obs.Allocs.bytes_of
      "exploit driver, paged memory, one round = all rows (23 process images)"
      [ ("process-image-ms", Exploit.Driver.all_rows) ]
  in
  Format.printf "  (%d rows, ok=%b)@." (List.length m.(0).last)
    (Exploit.Driver.rows_ok m.(0).last)

(* ================= CORPUS: streaming generation + classification == *)

(* The cost model of the million-report path at bench scale: the
   legacy whole-database generator versus the chunked stream (same
   report content by construction), and the verb's own store-less
   classification sweep, a million reports in chunks of 4096.  A
   generation round repeats each generator [generations] times, so
   that a round is well above the 10 ms timer floor; its -bytes keys
   are per generation.  Bytes come from {!Obs.Allocs.minor_bytes_of}
   (a pure allocation-event count, independent of collector phase),
   which makes -bytes the precise gate; wall-clock catches
   catastrophes. *)
let corpus_bench () =
  section "CORPUS -- streaming corpus generation and classification";
  let total = Vulndb.Synth.legacy_total and generations = 20 in
  let stream () =
    let n = ref 0 in
    (match
       Vulndb.Synth.generate_stream ~seed:1 ~total ~chunk:1024
         (fun ~index:_ rs -> n := !n + List.length rs)
     with
     | Ok _ -> ()
     | Error e -> failwith (Vulndb.Synth.error_to_string e));
    !n
  in
  let per_generation f =
    let r, bytes = Obs.Allocs.minor_bytes_of f in
    (r, bytes /. float_of_int generations)
  in
  let m =
    leg ~section:"CORPUS" ~bytes:per_generation
      (Printf.sprintf
         "corpus of %d reports, one round = %d generations per side (stream chunk 1024), \
          bytes per generation"
         total generations)
      [ ("legacy-generate-ms",
         repeat generations (fun () -> Vulndb.Database.size (Vulndb.Synth.generate ~seed:1)));
        ("stream-generate-ms", repeat generations stream) ]
  in
  ratio ~section:"CORPUS" "stream-speedup" ~base:m.(0) m.(1) (m.(0).median /. m.(1).median);
  let rate = float_of_int (generations * total) /. m.(1).median in
  Format.printf "  %-28s %10.0f@." "stream-reports-per-s" rate;
  record ~section:"CORPUS" "stream-reports-per-s" rate;
  (* At -j 1 whatever DFSM_JOBS says, so that the rate compares with
     the baseline's at any job count; bench/e2e's --jobs measures what
     -j does to the verb. *)
  let reports = 1_000_000 in
  let c =
    measure
      [ ( 1,
          fun () ->
            match Corpus.Pipeline.run ~seed:1 ~total:reports ~chunk:4096 () with
            | Ok t -> t
            | Error e -> failwith (Vulndb.Synth.error_to_string e) ) ]
  in
  report ~section:"CORPUS"
    (Printf.sprintf
       "store-less classification at -j 1, one round = one run over %d reports (chunk 4096)"
       reports)
    [ "classify-ms" ] c;
  let rate = float_of_int reports /. c.(0).median in
  Format.printf "  %-28s %10.0f@." "classify-reports-per-s" rate;
  record ~section:"CORPUS" "classify-reports-per-s" rate;
  let t = c.(0).last in
  Format.printf "  accuracy %.4f vs baseline %.4f@." t.Corpus.Pipeline.accuracy
    t.Corpus.Pipeline.baseline;
  record ~section:"CORPUS" "classify-accuracy" t.Corpus.Pipeline.accuracy

let usage () =
  prerr_endline
    "usage: bench [--smoke] [--json [FILE]] [--compare FILE]\n\
    \  --smoke          fast subset (figure 1, lint sweep, resilience, PAR, OBS, SERVE,\n\
    \                   STORE, PERF, CORPUS) at 5 timing rounds instead of 10\n\
    \  --json [FILE]    also write metrics as JSON (default BENCH.json)\n\
    \  --compare FILE   diff this run's cost metrics (-ms/-s/-bytes keys) and\n\
    \                   rates (-per-s keys) against a committed baseline\n\
    \                   JSON, skipping -jN keys beyond the cores; exit 1 on\n\
    \                   a regression past 20% or on a gated baseline key\n\
    \                   this run lacks";
  exit 2

let parse_argv () =
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        go rest
    | "--json" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
        json_out := Some path;
        go rest
    | "--json" :: rest ->
        json_out := Some "BENCH.json";
        go rest
    | "--compare" :: path :: rest when String.length path > 0 && path.[0] <> '-' ->
        compare_baseline := Some path;
        go rest
    | "--compare" :: _ ->
        prerr_endline "bench: --compare needs a baseline file";
        usage ()
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %S\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

let () =
  parse_argv ();
  if !smoke then begin
    fig1 ();
    lint_sweep ();
    resilience (par_bench ());
    obs_bench ();
    serve_bench ();
    store_bench ();
    perf_bench ();
    corpus_bench ()
  end
  else begin
    fig1 ();
    tab1 ();
    fig2 ();
    fig3 ();
    fig4 ();
    fig5 ();
    fig6 ();
    fig7 ();
    fig8 ();
    tab2 ();
    observations ();
    verification ();
    lemma ();
    consistency ();
    faults ();
    ablation_aslr ();
    ablation_interleavings ();
    races_bench ();
    protection_matrix ();
    auto_tool ();
    baselines ();
    trend_extension ();
    lint_sweep ();
    resilience (par_bench ());
    obs_bench ();
    serve_bench ();
    store_bench ();
    perf_bench ();
    corpus_bench ()
  end;
  (match !json_out with Some path -> write_json path | None -> ());
  Par.teardown ();
  (match !compare_baseline with
   | Some path -> compare_with_baseline path
   | None -> ());
  Format.printf "@.done.@."
