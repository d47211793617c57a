(* Benchmark & reproduction harness.

   Part 1 regenerates every table and figure of the paper (the rows /
   series the paper reports); part 2 runs Bechamel micro-benchmarks —
   one Test.make per experiment plus the substrate hot paths.

   Run with: dune exec bench/main.exe --
               [--smoke] [--json [FILE]] [--compare FILE] [--threshold PCT]

   --smoke     runs the fast subset (figure-1 check, lint sweep, the
               resilience, PAR, OBS, SERVE, STORE, PERF and CORPUS sections) —
               the CI perf-trajectory step
   --json      additionally writes every recorded metric as machine-
               readable JSON (default file: BENCH.json)
   --compare   diffs this run's cost metrics (keys suffixed -ms, -s,
               -ns, -bytes) against a committed baseline JSON and
               exits 1 on a regression past --threshold (default 20%,
               with a per-unit absolute floor against timer jitter) *)

let smoke = ref false

let json_out : string option ref = ref None

(* ---- metric store: section -> metric -> value -------------------- *)

let metrics : (string * (string * float) list ref) list ref = ref []

let record ~section:s name v =
  match List.assoc_opt s !metrics with
  | Some cell -> cell := (name, v) :: !cell
  | None -> metrics := !metrics @ [ (s, ref [ (name, v) ]) ]

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
        ("jobs", Json.Int (Par.jobs ()));
        ("sections", Json.Obj (List.map section !metrics)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~layout:Indented doc ^ "\n"));
  Format.printf "@.wrote %s@." path

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---- baseline comparison: --compare FILE [--threshold PCT] -------- *)

let compare_baseline : string option ref = ref None

let threshold = ref 20.0

(* Only cost metrics are gated (lower is better); a name is a cost
   when it carries one of these unit suffixes.  Each class has an
   absolute floor the excess must clear before the relative threshold
   counts.  Allocation counts are deterministic for a deterministic
   workload (the PERF legs additionally take the min over three
   repetitions to shed one-off runtime housekeeping), so `-bytes` is
   the precise, load-bearing gate at the relative threshold alone.
   Wall-clock metrics on shared CI runners routinely jitter 2-3x on
   10-600 ms legs, so a timing metric must at least *double* past its
   unit floor before it fails the build — timings catch catastrophes,
   bytes catch representation regressions. *)
let cost_floor name ~base =
  let has suffix =
    let n = String.length name and s = String.length suffix in
    n >= s && String.sub name (n - s) s = suffix
  in
  if has "-bytes" then Some 4096.
  else if has "-ms" then Some (Float.max 100. base)
  else if has "-ns" then Some (Float.max 100_000. base)
  else if has "-s" || has "_s" then Some (Float.max 1.0 base)
  else None

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
  let current s name =
    match List.assoc_opt s !metrics with
    | Some cell -> List.assoc_opt name !cell
    | None -> None
  in
  let compared = ref 0 in
  let regressions = ref [] in
  List.iter
    (fun (sec, fields) ->
      match fields with
      | Json.Obj fields ->
          List.iter
            (fun (name, v) ->
              match num v with
              | Some base when base > 0. -> (
                  match cost_floor name ~base, current sec name with
                  | Some floor, Some cur ->
                      incr compared;
                      if cur > base *. (1. +. (!threshold /. 100.))
                         && cur -. base > floor
                      then regressions := (sec, name, base, cur) :: !regressions
                  | _ -> ())
              | _ -> ())
            fields
      | _ -> ())
    base_sections;
  Format.printf "@.compared %d cost metrics against %s (threshold %.0f%%)@."
    !compared path !threshold;
  match List.rev !regressions with
  | [] -> Format.printf "no regressions past threshold@."
  | regs ->
      List.iter
        (fun (sec, name, base, cur) ->
          Printf.eprintf
            "bench: REGRESSION %s/%s: %.6g -> %.6g (+%.0f%%)\n" sec name base
            cur
            ((cur -. base) /. base *. 100.))
        regs;
      Printf.eprintf "bench: %d metric(s) regressed past %.0f%%\n"
        (List.length regs) !threshold;
      exit 1

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* ================= Part 1: figure/table reproduction ============== *)

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

let run_model_section ~title ~model ~scenarios ~rows =
  section title;
  Format.printf "%a@." Pfsm.Pretty.pp_model model;
  let report = Pfsm.Analysis.analyze model ~scenarios in
  Format.printf "%a@." Pfsm.Pretty.pp_report report;
  Format.printf "simulation rows:@.%a@." Exploit.Driver.pp_rows rows

let fig3 () =
  let app = Apps.Sendmail.setup () in
  run_model_section
    ~title:"FIG3 -- Sendmail signed integer overflow, Bugtraq #3163 (Figure 3)"
    ~model:(Apps.Sendmail.model app)
    ~scenarios:[ Apps.Sendmail.exploit_scenario app; Apps.Sendmail.benign_scenario ]
    ~rows:(Exploit.Driver.sendmail_rows ())

let fig4 () =
  let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let cl, body = Exploit.Attack.nullhttpd_6255 app in
  run_model_section
    ~title:"FIG4 -- NULL HTTPD heap overflow, #5774 and the new #6255 (Figure 4)"
    ~model:(Apps.Nullhttpd.model app)
    ~scenarios:
      [ Apps.Nullhttpd.scenario ~content_len:cl ~body; Apps.Nullhttpd.benign_scenario ]
    ~rows:(Exploit.Driver.nullhttpd_rows ());
  (match Discovery.Differential.rediscover_6255 () with
   | Some finding ->
       Format.printf "@.new vulnerability discovered while modeling the known one:@.%a@."
         Discovery.Finding.pp finding
   | None -> Format.printf "@.discovery sweep found nothing (unexpected)@.")

let fig5 () =
  run_model_section ~title:"FIG5 -- xterm log file race condition (Figure 5)"
    ~model:(Apps.Xterm.model ())
    ~scenarios:[ Apps.Xterm.race_scenario; Apps.Xterm.benign_scenario ]
    ~rows:(Exploit.Driver.xterm_rows ());
  Format.printf "@.schedule exploration: %d interleavings, winners:@."
    Apps.Xterm.total_interleavings;
  List.iter
    (fun (v : Apps.Outcome.t Osmodel.Scheduler.verdict) ->
       Format.printf "  %s@."
         (String.concat "  ->  " v.Osmodel.Scheduler.schedule))
    (Apps.Xterm.run_race { Apps.Xterm.open_nofollow = false })

let fig6 () =
  let app = Apps.Rwall.setup () in
  run_model_section
    ~title:"FIG6 -- Solaris rwall arbitrary file corruption (Figure 6)"
    ~model:(Apps.Rwall.model app)
    ~scenarios:[ Apps.Rwall.attack_scenario; Apps.Rwall.benign_scenario ]
    ~rows:(Exploit.Driver.rwall_rows ())

let fig7 () =
  let app = Apps.Iis.setup () in
  run_model_section
    ~title:"FIG7 -- IIS superfluous filename decoding, Bugtraq #2708 (Figure 7)"
    ~model:(Apps.Iis.model app)
    ~scenarios:
      [ Apps.Iis.scenario ~path:Exploit.Attack.iis_path;
        Apps.Iis.scenario ~path:Apps.Iis.benign_path ]
    ~rows:(Exploit.Driver.iis_rows ());
  Format.printf "@.companion [21] models (classified in Table 2):@.";
  Format.printf "%a@." Exploit.Driver.pp_rows
    (Exploit.Driver.ghttpd_rows () @ Exploit.Driver.rpc_statd_rows ())

let all_models () =
  [ ("Sendmail Signed Integer Overflow (Fig. 3)",
     Apps.Sendmail.model (Apps.Sendmail.setup ()));
    ("NULL HTTPD Heap Overflow (Fig. 4)",
     Apps.Nullhttpd.model (Apps.Nullhttpd.setup ()));
    ("Rwall File Corruption (Fig. 6)", Apps.Rwall.model (Apps.Rwall.setup ()));
    ("IIS Filename Decoding (Fig. 7)", Apps.Iis.model (Apps.Iis.setup ()));
    ("Xterm File Race Condition (Fig. 5)", Apps.Xterm.model ());
    ("GHTTPD Buffer Overflow on Stack [21]", Apps.Ghttpd.model (Apps.Ghttpd.setup ()));
    ("rpc.statd format string vulnerability [21]",
     Apps.Rpc_statd.model (Apps.Rpc_statd.setup ())) ]

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
  let sendmail = Apps.Sendmail.setup () in
  metf_case "Sendmail #3163" (Apps.Sendmail.model sendmail)
    (Apps.Sendmail.exploit_scenario sendmail);
  let nh = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let cl, body = Exploit.Attack.nullhttpd_6255 nh in
  metf_case "NULL HTTPD #6255" (Apps.Nullhttpd.model nh)
    (Apps.Nullhttpd.scenario ~content_len:cl ~body);
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
    [ ("Sendmail #3163",
       Pfsm.Analysis.analyze (Apps.Sendmail.model sendmail)
         ~scenarios:
           [ Apps.Sendmail.exploit_scenario sendmail; Apps.Sendmail.benign_scenario ]);
      ("NULL HTTPD #6255",
       Pfsm.Analysis.analyze (Apps.Nullhttpd.model nh)
         ~scenarios:
           [ Apps.Nullhttpd.scenario ~content_len:cl ~body;
             Apps.Nullhttpd.benign_scenario ]);
      ("xterm race",
       Pfsm.Analysis.analyze (Apps.Xterm.model ())
         ~scenarios:[ Apps.Xterm.race_scenario; Apps.Xterm.benign_scenario ]);
      ("IIS #2708",
       let app = Apps.Iis.setup () in
       Pfsm.Analysis.analyze (Apps.Iis.model app)
         ~scenarios:
           [ Apps.Iis.scenario ~path:Exploit.Attack.iis_path;
             Apps.Iis.scenario ~path:Apps.Iis.benign_path ]) ]

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
  let plain, t_plain = wall (fun () -> Racecheck.Driver.analyze ()) in
  let por, t_por = wall (fun () -> Racecheck.Driver.analyze ~por:true ()) in
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
    plain.Racecheck.Driver.instances por.Racecheck.Driver.instances;
  Format.printf
    "@.plain: %.3fs (unresolved findings above), por: %.3fs (every window \
     drained)@."
    t_plain t_por;
  record ~section:"RACE" "plain_s" t_plain;
  record ~section:"RACE" "por_s" t_por

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

let resilience () =
  section "RESILIENCE -- supervision overhead and the chaos harness";
  let reps = if !smoke then 10 else 50 and rounds = if !smoke then 6 else 10 in
  (* Like for like: [corpus_sweep] maps over the Par pool, and the
     supervised side speculates on it too, as [dfsm lint --corpus]
     runs it. *)
  let raw () = ignore (Staticcheck.Linter.corpus_sweep ()) in
  let supervised () =
    ignore (Staticcheck.Linter.supervised_sweep ~parallel:true ())
  in
  (* warm-up, so neither side pays first-touch costs *)
  raw ();
  supervised ();
  (* Rounds of one block per side, median per side.  Whichever block
     runs first in a round runs measurably slower, so the sides take
     turns going first. *)
  let block f = snd (wall (fun () -> for _ = 1 to reps do f () done)) in
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let rounds =
    List.init rounds (fun i ->
        if i mod 2 = 0 then
          let r = block raw in
          (r, block supervised)
        else
          let s = block supervised in
          (block raw, s))
  in
  let raw = median (List.map fst rounds) and sup = median (List.map snd rounds) in
  let overhead = (sup -. raw) /. raw *. 100. in
  Format.printf "fault-free corpus sweep, median of %d rounds of %d repetitions:@."
    (List.length rounds) reps;
  Format.printf "  raw                 %8.1f ms@." (raw *. 1000.);
  Format.printf "  supervised          %8.1f ms@." (sup *. 1000.);
  Format.printf "  wrapper overhead    %+7.1f%%   (target: < 5%% on the fault-free path)@."
    overhead;
  record ~section:"RESILIENCE" "sweep-raw-ms" (raw *. 1000.);
  record ~section:"RESILIENCE" "sweep-supervised-ms" (sup *. 1000.);
  record ~section:"RESILIENCE" "wrapper-overhead-pct" overhead;
  let plans = if !smoke then Fault.Catalog.smoke else Fault.Catalog.all in
  let report, chaos_t = wall (fun () -> Chaos.run ~plans ()) in
  let items =
    List.fold_left
      (fun acc (r : Chaos.plan_run) ->
         List.fold_left (fun acc (l : Chaos.leg) -> acc + l.Chaos.expected_items) acc
           r.Chaos.legs)
      0 report.Chaos.runs
  in
  Format.printf
    "@.chaos harness: %d plans x 3 legs (%d supervised items) in %.2f s; contract ok = %b@."
    (List.length report.Chaos.runs) items chaos_t (Chaos.ok report);
  record ~section:"RESILIENCE" "chaos-s" chaos_t;
  record ~section:"RESILIENCE" "chaos-ok" (if Chaos.ok report then 1. else 0.);
  (* the costliest plan on its own: short-recv's 7-byte clamps spin
     three NULL HTTPD lint candidates to the interpreter's loop bound
     (300,608 injected faults per run); min of 3 runs *)
  let short_recv_t =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           snd (wall (fun () -> Chaos.run ~plans:[ Fault.Catalog.short_recv ] ()))))
  in
  Format.printf "chaos short-recv plan alone: %.1f ms (min of 3)@."
    (short_recv_t *. 1000.);
  record ~section:"RESILIENCE" "chaos-short-recv-ms" (short_recv_t *. 1000.)

(* ================= PAR: domain pool + analysis memo =============== *)

(* Every batch path at -j 1 vs -j 2 / -j 4, with a built-in
   byte-identical-output assertion (the determinism contract), plus
   the analysis-memo hit rates.  Wall-clock numbers are honest for
   this machine: with a single hardware thread the -j speedups hover
   around 1.0 and the memo supplies the algorithmic win; on a
   multicore host the same harness shows the pool scaling. *)
let par_bench () =
  section "PAR -- deterministic domain pool and the analysis memo";
  let cores = Domain.recommended_domain_count () in
  Format.printf "hardware threads (recommended domain count): %d@.@." cores;
  record ~section:"PAR" "cores" (float_of_int cores);
  let job_counts = [ 1; 2; 4 ] in
  let at_jobs j f =
    Par.set_jobs j;
    let r, t = wall f in
    (r, t)
  in
  let batch name ~reps ~run ~show =
    ignore (run ());  (* warm-up outside the timed region *)
    let results = List.map (fun j -> (j, at_jobs j (fun () ->
        let r = ref (run ()) in
        for _ = 2 to reps do r := run () done;
        !r))) job_counts in
    let base = List.assoc 1 results in
    let identical =
      List.for_all (fun (_, (r, _)) -> show r = show (fst base)) results
    in
    Format.printf "%-22s %d reps:" name reps;
    List.iter
      (fun (j, (_, t)) ->
        let speedup = snd base /. t in
        Format.printf "  -j %d %7.1f ms (x%.2f)" j (t *. 1000.) speedup;
        record ~section:"PAR"
          (Printf.sprintf "%s-j%d-ms" name j) (t *. 1000.);
        record ~section:"PAR"
          (Printf.sprintf "%s-j%d-speedup" name j) (snd base /. t))
      results;
    Format.printf "  byte-identical=%b@." identical;
    record ~section:"PAR" (name ^ "-identical") (if identical then 1. else 0.);
    if not identical then
      Format.printf "  *** PAR DETERMINISM VIOLATION in %s ***@." name
  in
  let reps = if !smoke then 2 else 5 in
  (* a meatier lint batch than the 7-variant corpus: Progen functions *)
  let gen_funcs = List.init (if !smoke then 24 else 96) (fun i ->
      Staticcheck.Progen.func ~seed:(1000 + i)) in
  batch "lint-progen" ~reps
    ~run:(fun () -> Staticcheck.Linter.lint_program gen_funcs)
    ~show:(fun rs ->
        String.concat ";"
          (List.map (fun r ->
               Printf.sprintf "%s=%d" r.Staticcheck.Linter.func.Minic.Ast.name
                 (List.length r.Staticcheck.Linter.findings)) rs));
  let iis = Apps.Iis.setup () in
  let iis_model = Apps.Iis.model iis in
  let analyze_scenarios =
    List.init (if !smoke then 64 else 256) (fun i ->
        Apps.Iis.scenario
          ~path:(Printf.sprintf "/..%%252f..%%252fdir%d%%252ffile%d" i (i * 7)))
  in
  batch "analyze-fanout" ~reps
    ~run:(fun () ->
        Pfsm.Analysis.analyze ~par:true iis_model ~scenarios:analyze_scenarios)
    ~show:(fun rep ->
        Format.asprintf "%d:%a" rep.Pfsm.Analysis.scenarios_run
          (Format.pp_print_list
             (fun ppf (f : Pfsm.Analysis.pfsm_finding) ->
               Format.fprintf ppf "%s=%d" f.Pfsm.Analysis.operation
                 f.Pfsm.Analysis.hidden_hits))
          rep.Pfsm.Analysis.findings);
  batch "synth-generate" ~reps
    ~run:(fun () -> Vulndb.Synth.generate ~seed:20021130)
    ~show:Vulndb.Csv.of_database;
  batch "fault-matrix" ~reps:(max 1 (reps - 1))
    ~run:(fun () -> Exploit.Fault_matrix.run ~plans:Fault.Catalog.smoke ())
    ~show:(fun reports ->
        String.concat ";"
          (List.map (Format.asprintf "%a" Exploit.Fault_matrix.pp_report) reports));
  batch "chaos-smoke" ~reps:1
    ~run:(fun () -> Chaos.run ~plans:Fault.Catalog.smoke ())
    ~show:Chaos.to_json;
  Par.set_jobs (max 1 cores);
  (* the memo: repeated analysis of one model over one scenario set —
     exactly the recurrence the fault matrix and chaos legs produce
     (same pair once per plan per leg).  [analyze] vs [analyze ~memo]
     on the same inputs; the memoized pass pays two digests up front
     and table lookups thereafter. *)
  (* long request paths make [Model.run] scan kilobytes through the
     double-decode predicates, while a memo hit pays one MD5 pass *)
  let memo_scenarios =
    List.init (if !smoke then 12 else 24) (fun i ->
        let filler = String.concat "" (List.init 400 (fun _ -> "..%252f")) in
        Apps.Iis.scenario ~path:(Printf.sprintf "/%s/dir%d/cmd.exe" filler i))
  in
  let memo_reps = if !smoke then 5 else 20 in
  ignore (Pfsm.Analysis.analyze iis_model ~scenarios:memo_scenarios);
  let (), plain =
    wall (fun () ->
        for _ = 1 to memo_reps do
          ignore (Pfsm.Analysis.analyze iis_model ~scenarios:memo_scenarios)
        done)
  in
  Pfsm.Analysis.memo_reset ();
  let (), memod =
    wall (fun () ->
        for _ = 1 to memo_reps do
          ignore (Pfsm.Analysis.analyze ~memo:true iis_model ~scenarios:memo_scenarios)
        done)
  in
  let stats = Pfsm.Analysis.memo_stats () in
  let hit_rate =
    if stats.Pfsm.Analysis.lookups = 0 then 0.
    else
      float_of_int stats.Pfsm.Analysis.hits
      /. float_of_int stats.Pfsm.Analysis.lookups
  in
  Format.printf
    "@.analysis memo, IIS double-decode x %d scenario runs: plain %.1f ms, \
     memoized %.1f ms (x%.1f); %d lookups, %d hits, %d misses (hit rate %.0f%%)@."
    (memo_reps * List.length memo_scenarios)
    (plain *. 1000.) (memod *. 1000.) (plain /. memod)
    stats.Pfsm.Analysis.lookups stats.Pfsm.Analysis.hits
    stats.Pfsm.Analysis.misses (hit_rate *. 100.);
  record ~section:"PAR" "memo-plain-ms" (plain *. 1000.);
  record ~section:"PAR" "memo-memoized-ms" (memod *. 1000.);
  record ~section:"PAR" "memo-speedup" (plain /. memod);
  record ~section:"PAR" "memo-hit-rate" hit_rate;
  (* the chaos run's own hit rate, as surfaced in its report *)
  let chaos_report = Chaos.run ~plans:Fault.Catalog.smoke () in
  let m = chaos_report.Chaos.memo in
  let chaos_rate =
    if m.Pfsm.Analysis.lookups = 0 then 0.
    else float_of_int m.Pfsm.Analysis.hits /. float_of_int m.Pfsm.Analysis.lookups
  in
  Format.printf
    "chaos (smoke) memo: %d lookups, %d hits, %d misses (hit rate %.0f%%)@."
    m.Pfsm.Analysis.lookups m.Pfsm.Analysis.hits m.Pfsm.Analysis.misses
    (chaos_rate *. 100.);
  record ~section:"PAR" "chaos-memo-lookups" (float_of_int m.Pfsm.Analysis.lookups);
  record ~section:"PAR" "chaos-memo-hits" (float_of_int m.Pfsm.Analysis.hits);
  record ~section:"PAR" "chaos-memo-hit-rate" chaos_rate

(* ================= OBS: tracing + metrics overhead ================ *)

(* The observability contract: spans over virtual time cost nothing
   when tracing is off and stay cheap when it is on (target < 5 % on
   the lint sweep).  Also exercises the wall-clock annotation mode the
   determinism-traced paths never use. *)
let obs_bench () =
  section "OBS -- tracing and metrics overhead over the lint sweep";
  let reps = if !smoke then 20 else 100 in
  let gen_funcs =
    List.init 48 (fun i -> Staticcheck.Progen.func ~seed:(2000 + i))
  in
  let run () = ignore (Staticcheck.Linter.lint_program gen_funcs) in
  (* warm up the pool, the minor heap and the analysis caches so the
     first timed loop does not absorb one-time costs *)
  for _ = 1 to 3 do run () done;
  (* interleaved best-of-5 trials with a major GC before each loop:
     alternating off/on cancels machine drift, and taking the minimum
     discards trials that absorbed a GC slice or a scheduling stall *)
  let trial f =
    Gc.major ();
    let (), t = wall (fun () -> for _ = 1 to reps do f () done) in
    t
  in
  let off = ref infinity and on_ = ref infinity in
  let events = ref [] in
  for _ = 1 to 5 do
    let t_off = trial run in
    if t_off < !off then off := t_off;
    Obs.Trace.start ();
    let t_on = trial run in
    events := Obs.Trace.drain ();
    if t_on < !on_ then on_ := t_on
  done;
  let off = !off and on_ = !on_ and events = !events in
  let overhead = (on_ -. off) /. off *. 100. in
  Format.printf "lint sweep (%d Progen functions), %d repetitions:@."
    (List.length gen_funcs) reps;
  Format.printf "  tracing off         %8.1f ms@." (off *. 1000.);
  Format.printf "  tracing on          %8.1f ms  (%d events, %d dropped)@."
    (on_ *. 1000.) (List.length events) (Obs.Trace.dropped ());
  Format.printf
    "  tracing overhead    %+7.1f%%   (target: < 5%% on the lint sweep)@."
    overhead;
  record ~section:"OBS" "trace-off-ms" (off *. 1000.);
  record ~section:"OBS" "trace-on-ms" (on_ *. 1000.);
  record ~section:"OBS" "trace-overhead-pct" overhead;
  record ~section:"OBS" "trace-events" (float_of_int (List.length events));
  let ok = overhead < 5.0 in
  record ~section:"OBS" "trace-overhead-ok" (if ok then 1. else 0.);
  if !smoke && not ok then
    Format.printf "  *** OBS OVERHEAD TARGET MISSED (%.1f%% >= 5%%) ***@."
      overhead;
  (* wall-clock annotation: opt-in, breaks byte-identity, bench-only *)
  Obs.Trace.set_wall_clock (Some Unix.gettimeofday);
  Obs.Trace.start ();
  run ();
  let annotated = Obs.Trace.drain () in
  Obs.Trace.set_wall_clock None;
  let with_wall =
    List.length
      (List.filter (fun e -> e.Obs.Trace.wall_us <> None) annotated)
  in
  Format.printf
    "wall-clock annotated pass: %d/%d events carry wall_us@." with_wall
    (List.length annotated);
  record ~section:"OBS" "wall-annotated-events" (float_of_int with_wall);
  (* the metrics layer is always on; a snapshot is the fold of every
     per-domain cell and should stay microscopic *)
  let snap, snap_t = wall (fun () -> Obs.Metrics.snapshot ()) in
  Format.printf "metrics snapshot: %d metrics in %.3f ms@."
    (List.length snap) (snap_t *. 1000.);
  record ~section:"OBS" "snapshot-ms" (snap_t *. 1000.)

(* ================= SERVE: request loop throughput ================= *)

(* The serve loop end to end: a canned request script through
   [Server.run_script] at -j 1/2/4.  Requests/sec comes from wall
   time; p50/p99 per-request latency is over *virtual* time
   (completion tick minus admission tick), so the latency numbers are
   a pure function of the script and must agree at every job count —
   as must the whole response stream, byte for byte. *)
let serve_bench () =
  section "SERVE -- supervised request loop (req/s, latency over virtual time)";
  let module S = Serve.Server in
  let n_work = if !smoke then 40 else 200 in
  let reps = if !smoke then 3 else 10 in
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
  ignore (S.run_script ~config script);  (* warm-up outside the timed region *)
  let job_counts = [ 1; 2; 4 ] in
  let results =
    List.map
      (fun j ->
        Par.set_jobs j;
        let r, t =
          wall (fun () ->
              let r = ref (S.run_script ~config script) in
              for _ = 2 to reps do r := S.run_script ~config script done;
              !r)
        in
        (j, r, t /. float_of_int reps))
      job_counts
  in
  let _, (base_lines, base_summary), base_t = List.hd results in
  let identical =
    List.for_all
      (fun (_, (lines, s), _) ->
        lines = base_lines && S.summary_to_json s = S.summary_to_json base_summary)
      results
  in
  Format.printf "%d work requests per run, %d runs per job count:@." n_work reps;
  List.iter
    (fun (j, (_, s), t) ->
      let rps = float_of_int s.S.admitted /. t in
      Format.printf "  -j %d %8.1f ms/run  %8.0f req/s  (x%.2f)@." j
        (t *. 1000.) rps (base_t /. t);
      record ~section:"SERVE" (Printf.sprintf "req-per-sec-j%d" j) rps;
      record ~section:"SERVE" (Printf.sprintf "run-ms-j%d" j) (t *. 1000.);
      record ~section:"SERVE" (Printf.sprintf "speedup-j%d" j) (base_t /. t))
    results;
  let lat = base_summary.S.latencies in
  let p50 = S.percentile 50 lat and p99 = S.percentile 99 lat in
  Format.printf
    "latency over virtual time: p50 %d ticks, p99 %d ticks (%d completed)@."
    p50 p99 (List.length lat);
  Format.printf "response streams byte-identical across -j 1/2/4: %b@." identical;
  record ~section:"SERVE" "latency-p50-vt" (float_of_int p50);
  record ~section:"SERVE" "latency-p99-vt" (float_of_int p99);
  record ~section:"SERVE" "admitted" (float_of_int base_summary.S.admitted);
  record ~section:"SERVE" "shed" (float_of_int base_summary.S.shed);
  record ~section:"SERVE" "identical" (if identical then 1. else 0.);
  if not identical then
    Format.printf "  *** SERVE DETERMINISM VIOLATION ***@."

(* ================= STORE: persistent result store ================= *)

(* The cost model of the crash-consistent store over the lint corpus
   sweep: a cold pass pays one record commit per corpus entry, a warm
   pass replaces every analysis with a verified read, and a pass over
   a fully corrupted store pays verification + eviction + recompute +
   rewrite on every entry — the graceful-degradation worst case.  The
   store-less sweep is the baseline all three compare against. *)
let store_bench () =
  section "STORE -- persistent result store (cold / warm / corrupt-degraded)";
  let reps = if !smoke then 5 else 20 in
  let sweep () = ignore (Staticcheck.Linter.corpus_sweep ()) in
  let timed f =
    let (), t = wall (fun () -> for _ = 1 to reps do f () done) in
    t /. float_of_int reps
  in
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
  sweep ();  (* warm-up outside every timed region *)
  let baseline = timed sweep in
  let s = Store.Disk.open_ ~dir in
  Fun.protect
    ~finally:(fun () -> Store.Disk.close s; rm_rf dir)
    (fun () ->
      Store.Handle.with_store (Some s) (fun () ->
          (* cold: every rep recommits (fresh store per rep would time
             mkdir; evicting between reps isolates the write path) *)
          let corrupt_all () =
            List.iter
              (fun k -> Store.Disk.note_corrupt s ~key:k)
              (Store.Disk.manifest_keys s)
          in
          sweep ();
          let cold = timed (fun () -> corrupt_all (); sweep ()) in
          let warm = timed sweep in
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
              (Store.Disk.manifest_keys s)
          in
          let degraded = timed (fun () -> tamper (); sweep ()) in
          let st = Store.Disk.stats s in
          Format.printf "corpus sweep, %d repetitions per mode:@." reps;
          Format.printf "  store-less          %8.2f ms@." (baseline *. 1000.);
          Format.printf "  cold (all writes)   %8.2f ms@." (cold *. 1000.);
          Format.printf "  warm (all hits)     %8.2f ms  (x%.2f vs store-less)@."
            (warm *. 1000.) (baseline /. warm);
          Format.printf "  corrupt-degraded    %8.2f ms  (verify+evict+recompute+rewrite)@."
            (degraded *. 1000.);
          Format.printf
            "  totals: %d hits, %d misses, %d corrupt, %d repaired, %d writes@."
            st.Store.Disk.hits st.Store.Disk.misses st.Store.Disk.corrupt
            st.Store.Disk.repaired st.Store.Disk.writes;
          record ~section:"STORE" "sweep-storeless-ms" (baseline *. 1000.);
          record ~section:"STORE" "sweep-cold-ms" (cold *. 1000.);
          record ~section:"STORE" "sweep-warm-ms" (warm *. 1000.);
          record ~section:"STORE" "sweep-corrupt-ms" (degraded *. 1000.);
          record ~section:"STORE" "warm-speedup" (baseline /. warm);
          record ~section:"STORE" "repaired" (float_of_int st.Store.Disk.repaired)))

(* ================= PERF: data-representation before/after ========== *)

(* Each leg runs the retired representation (kept as an executable
   reference) against the production one over the same workload, and
   reports wall time plus this domain's allocated-bytes delta
   ([Obs.Allocs.bytes_of]).  The legs also cross-check agreement, so a
   "win" from a divergent implementation records 0 and is visible. *)

(* Runtime housekeeping (heap chunk growth, pool initialisation)
   occasionally lands a ~MB one-off allocation inside whichever timed
   region triggers it, which would flake a byte-level baseline gate.
   Each leg therefore runs three times and reports the minimum time
   and minimum bytes: the one-off can inflate at most one repetition,
   so the min is the stable, comparable figure. *)
let best_of ?(bytes_of = Obs.Allocs.bytes_of) leg =
  let run () =
    let (r, bytes), t = wall (fun () -> bytes_of leg) in
    (r, bytes, t)
  in
  let r, b0, t0 = run () in
  let _, b1, t1 = run () in
  let _, b2, t2 = run () in
  ((r, Float.min b0 (Float.min b1 b2)), Float.min t0 (Float.min t1 t2))

let perf_bench () =
  section "PERF -- hot-path data representations, before/after";

  (* predicate sets: sorted-unique id lists vs Predset bitsets.
     Ids are pre-interned outside the timed region so both legs time
     only the set operations, not the intern lock. *)
  let per_model_ids =
    List.map
      (fun (_, m) ->
        List.concat_map
          (fun (_, p) ->
            [ Pfsm.Predicate.id p.Pfsm.Primitive.spec;
              Pfsm.Predicate.id p.Pfsm.Primitive.impl ])
          (Pfsm.Model.all_pfsms m))
      (all_models ())
  in
  let probe = List.concat per_model_ids in
  let reps = if !smoke then 2_000 else 20_000 in
  let list_leg () =
    let found = ref 0 in
    for _ = 1 to reps do
      let union =
        List.fold_left
          (fun u ids -> List.sort_uniq compare (List.rev_append ids u))
          [] per_model_ids
      in
      List.iter (fun i -> if List.mem i union then incr found) probe
    done;
    !found
  in
  let bitset_leg () =
    let found = ref 0 in
    for _ = 1 to reps do
      let union =
        List.fold_left
          (fun u ids ->
            List.fold_left (fun u i -> Pfsm.Predset.add_id i u) u ids)
          Pfsm.Predset.empty per_model_ids
      in
      List.iter (fun i -> if Pfsm.Predset.mem_id i union then incr found) probe
    done;
    !found
  in
  let (hits_l, bytes_l), t_l = best_of list_leg in
  let (hits_b, bytes_b), t_b = best_of bitset_leg in
  Format.printf
    "predicate sets (%d models, %d preds, %d union+probe rounds):@."
    (List.length per_model_ids) (List.length probe) reps;
  Format.printf "  id lists (sort_uniq)  %8.2f ms  %12.0f bytes@."
    (t_l *. 1000.) bytes_l;
  Format.printf "  Predset bitsets       %8.2f ms  %12.0f bytes  (agree=%b)@."
    (t_b *. 1000.) bytes_b (hits_l = hits_b);
  record ~section:"PERF" "predset-list-ms" (t_l *. 1000.);
  record ~section:"PERF" "predset-bitset-ms" (t_b *. 1000.);
  record ~section:"PERF" "predset-list-bytes" bytes_l;
  record ~section:"PERF" "predset-bitset-bytes" bytes_b;
  record ~section:"PERF" "predset-agree" (if hits_l = hits_b then 1. else 0.);

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
  let preps = if !smoke then 50 else 200 in
  let por_leg enum () =
    let steps = ref 0 in
    for _ = 1 to preps do
      steps := !steps + drain (enum ~independent:E.independent procs)
    done;
    !steps
  in
  (* warm both enumerations (and the minor heap) outside the timed
     region, so the first leg doesn't pay the GC ramp-up *)
  ignore (drain (Sch.schedules_por_ref ~independent:E.independent procs));
  ignore (drain (Sch.schedules_por ~independent:E.independent procs));
  let (steps_l, pbytes_l), pt_l = best_of (por_leg Sch.schedules_por_ref) in
  let (steps_b, pbytes_b), pt_b = best_of (por_leg Sch.schedules_por) in
  Format.printf "@.POR sleep sets (3 processes, %d drains):@." preps;
  Format.printf "  int lists             %8.2f ms  %12.0f bytes@."
    (pt_l *. 1000.) pbytes_l;
  Format.printf "  bitmasks              %8.2f ms  %12.0f bytes  (agree=%b)@."
    (pt_b *. 1000.) pbytes_b (steps_l = steps_b);
  record ~section:"PERF" "por-list-ms" (pt_l *. 1000.);
  record ~section:"PERF" "por-bitmask-ms" (pt_b *. 1000.);
  record ~section:"PERF" "por-list-bytes" pbytes_l;
  record ~section:"PERF" "por-bitmask-bytes" pbytes_b;
  record ~section:"PERF" "por-agree" (if steps_l = steps_b then 1. else 0.);

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
    @ List.init (if !smoke then 8 else 24) (fun i ->
          Staticcheck.Progen.func ~seed:(3000 + i))
    @ List.map stress [ 8; 12; 16; 24 ]
  in
  let config =
    { Staticcheck.Absint.default_config with
      arrays = [ ("tab", 32) ] }
  in
  let areps = if !smoke then 5 else 20 in
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
  List.iter
    (fun f ->
      ignore (Staticcheck.Absint_ref.analyze ~config f);
      ignore (Staticcheck.Absint.analyze ~config f))
    funcs;
  let (raws_m, abytes_m), at_m =
    best_of
      (absint_leg (fun ~config f -> Staticcheck.Absint_ref.analyze ~config f))
  in
  let (raws_s, abytes_s), at_s =
    best_of (absint_leg (fun ~config f -> Staticcheck.Absint.analyze ~config f))
  in
  Format.printf "@.abstract interpreter (%d functions x %d reps):@."
    (List.length funcs) areps;
  Format.printf "  Smap environments     %8.2f ms  %12.0f bytes@."
    (at_m *. 1000.) abytes_m;
  Format.printf "  slot arrays           %8.2f ms  %12.0f bytes  (agree=%b)@."
    (at_s *. 1000.) abytes_s (raws_m = raws_s);
  record ~section:"PERF" "absint-smap-ms" (at_m *. 1000.);
  record ~section:"PERF" "absint-slots-ms" (at_s *. 1000.);
  record ~section:"PERF" "absint-smap-bytes" abytes_m;
  record ~section:"PERF" "absint-slots-bytes" abytes_s;
  record ~section:"PERF" "absint-agree" (if raws_m = raws_s then 1. else 0.);

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
  let clamp () =
    snd
      (Fault.Hooks.run Fault.Catalog.short_recv (fun () ->
           for _ = 1 to 100_000 do
             ignore (Fault.Hooks.recv_request ~requested:1024 ~consumed:0)
           done))
  in
  let (spun, ibytes), it = best_of ~bytes_of:Obs.Allocs.minor_bytes_of spin in
  let (events, rbytes), rt = best_of ~bytes_of:Obs.Allocs.minor_bytes_of clamp in
  Format.printf "@.mini-C interpreter, 100k loop iterations:@.";
  Format.printf "  slot-resolved         %8.2f ms  %12.0f bytes  (diverged=%b)@."
    (it *. 1000.) ibytes (spun = Minic.Interp.Diverged);
  Format.printf "fault events, 100k clamped recvs:@.";
  Format.printf "  typed, rendered lazily %7.2f ms  %12.0f bytes  (%d events)@."
    (rt *. 1000.) rbytes (List.length events);
  record ~section:"PERF" "interp-100k-iter-ms" (it *. 1000.);
  record ~section:"PERF" "interp-100k-iter-bytes" ibytes;
  record ~section:"PERF" "fault-record-100k-ms" (rt *. 1000.);
  record ~section:"PERF" "fault-record-100k-bytes" rbytes;

  (* process images: the exploit driver's rows run 23 simulations, each
     on a fresh Machine.Process.  A memory page is too large for the
     minor heap, so the bytes are Obs.Allocs.bytes_of's, which count
     direct major-heap allocation; minor_bytes_of would not see the
     images at all. *)
  let (rows, xbytes), xt = best_of Exploit.Driver.all_rows in
  Format.printf "exploit driver, all rows (23 process images):@.";
  Format.printf "  paged memory          %8.2f ms  %12.0f bytes  (%d rows, ok=%b)@."
    (xt *. 1000.) xbytes (List.length rows) (Exploit.Driver.rows_ok rows);
  record ~section:"PERF" "process-image-ms" (xt *. 1000.);
  record ~section:"PERF" "process-image-bytes" xbytes

(* ================= CORPUS: streaming generation + classification == *)

(* The cost model of the million-report path at bench scale: the
   legacy whole-database generator versus the chunked stream (same
   report content by construction), and the end-to-end store-less
   classification sweep.  Bytes come from {!Obs.Allocs.minor_bytes_of}
   (a pure allocation-event count, independent of collector phase)
   with the min over three repetitions, measured at -j 1 so every
   allocation lands on the measuring domain — pool-domain allocation
   is invisible to the caller's GC counters and scheduling-dependent.
   That makes -bytes the precise gate; wall-clock (at ambient jobs)
   catches catastrophes. *)
let corpus_bench () =
  section "CORPUS -- streaming corpus generation and classification";
  let total = Vulndb.Synth.legacy_total in
  let serial_bytes f =
    let prev = Par.jobs () in
    Par.set_jobs 1;
    Fun.protect ~finally:(fun () -> Par.set_jobs prev) (fun () ->
        let m = ref infinity in
        for _ = 1 to 3 do
          let _, b = Obs.Allocs.minor_bytes_of f in
          if b < !m then m := b
        done;
        !m)
  in
  let db = Vulndb.Synth.generate ~seed:1 in  (* warm-up *)
  let legacy_bytes = serial_bytes (fun () -> Vulndb.Synth.generate ~seed:1) in
  let _, legacy_t = wall (fun () -> ignore (Vulndb.Synth.generate ~seed:1)) in
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
  let stream_bytes = serial_bytes (fun () -> ignore (stream ())) in
  let streamed, stream_t = wall (fun () -> stream ()) in
  let chunk = if !smoke then 256 else 512 in
  let ctotal = if !smoke then 1500 else total in
  let classify () =
    match Corpus.Pipeline.run ~seed:1 ~total:ctotal ~chunk () with
    | Ok t -> t
    | Error e -> failwith (Vulndb.Synth.error_to_string e)
  in
  let t0 = classify () in  (* warm-up; also the reported accuracy *)
  let _, classify_t = wall (fun () -> ignore (classify ())) in
  let rate t n = float_of_int n /. t in
  Format.printf "corpus of %d reports (stream chunk 1024):@." total;
  Format.printf "  legacy generate     %8.2f ms  %12.0f bytes  %10.0f reports/s@."
    (legacy_t *. 1000.) legacy_bytes
    (rate legacy_t (Vulndb.Database.size db));
  Format.printf "  chunked stream      %8.2f ms  %12.0f bytes  %10.0f reports/s@."
    (stream_t *. 1000.) stream_bytes (rate stream_t streamed);
  Format.printf
    "  classify (%7d)  %8.2f ms  accuracy %.4f vs baseline %.4f@." ctotal
    (classify_t *. 1000.) t0.Corpus.Pipeline.accuracy
    t0.Corpus.Pipeline.baseline;
  record ~section:"CORPUS" "legacy-generate-ms" (legacy_t *. 1000.);
  record ~section:"CORPUS" "legacy-generate-bytes" legacy_bytes;
  record ~section:"CORPUS" "stream-generate-ms" (stream_t *. 1000.);
  record ~section:"CORPUS" "stream-generate-bytes" stream_bytes;
  record ~section:"CORPUS" "stream-reports-per-s" (rate stream_t streamed);
  record ~section:"CORPUS" "classify-ms" (classify_t *. 1000.);
  record ~section:"CORPUS" "classify-accuracy" t0.Corpus.Pipeline.accuracy

(* ================= Part 2: Bechamel micro-benchmarks ============== *)

open Bechamel
open Toolkit

let stage = Staged.stage

let experiment_tests =
  [ Test.make ~name:"fig1/synth+stats"
      (stage (fun () ->
           let db = Vulndb.Synth.generate ~seed:1 in
           Vulndb.Stats.breakdown db));
    Test.make ~name:"fig2/pfsm-run"
      (let pfsm =
         Pfsm.Primitive.make ~name:"p" ~kind:Pfsm.Taxonomy.Content_attribute_check
           ~activity:"a"
           ~spec:(Pfsm.Predicate.between Pfsm.Predicate.Self ~low:0 ~high:100)
           ~impl:Pfsm.Predicate.True
       in
       stage (fun () -> Pfsm.Primitive.run pfsm ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int (-5))));
    Test.make ~name:"fig3/sendmail-model-run"
      (let app = Apps.Sendmail.setup () in
       let model = Apps.Sendmail.model app in
       let env = Apps.Sendmail.exploit_scenario app in
       stage (fun () -> Pfsm.Model.run model ~env));
    Test.make ~name:"fig3/sendmail-simulation"
      (stage (fun () ->
           let app = Apps.Sendmail.setup () in
           let str_x, str_i = Exploit.Attack.sendmail_inputs app in
           Apps.Sendmail.run_attack app ~str_x ~str_i));
    Test.make ~name:"fig4/nullhttpd-simulation-6255"
      (stage (fun () ->
           let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
           let content_len, body = Exploit.Attack.nullhttpd_6255 app in
           Apps.Nullhttpd.handle_post app ~content_len ~body));
    Test.make ~name:"fig4/differential-sweep"
      (stage (fun () ->
           Discovery.Differential.nullhttpd_sweep ~config:Apps.Nullhttpd.v0_5_1 ()));
    Test.make ~name:"fig5/xterm-race-exploration"
      (stage (fun () -> Apps.Xterm.run_race { Apps.Xterm.open_nofollow = false }));
    Test.make ~name:"fig6/rwall-simulation"
      (stage (fun () ->
           Apps.Rwall.run_attack (Apps.Rwall.setup ()) ~message:"m\n"));
    Test.make ~name:"fig7/iis-request"
      (let app = Apps.Iis.setup () in
       stage (fun () -> Apps.Iis.handle_request app Exploit.Attack.iis_path));
    Test.make ~name:"tab2/taxonomy-matrix"
      (let model = Apps.Nullhttpd.model (Apps.Nullhttpd.setup ()) in
       stage (fun () -> Pfsm.Analysis.taxonomy_matrix model));
    Test.make ~name:"lemma/sufficiency"
      (let app = Apps.Sendmail.setup () in
       let model = Apps.Sendmail.model app in
       let scenarios = [ Apps.Sendmail.exploit_scenario app ] in
       stage (fun () -> Pfsm.Lemma.sufficiency model ~scenarios)) ]

let substrate_tests =
  [ Test.make ~name:"heap/malloc-free-cycle"
      (let mem = Machine.Memory.create ~base:0x1000 ~size:0x100000 in
       let heap = Machine.Heap.create mem ~base:0x1000 ~size:0x100000 ~safe_unlink:false in
       stage (fun () ->
           match Machine.Heap.malloc heap 256 with
           | Some user -> Machine.Heap.free heap user
           | None -> ()));
    Test.make ~name:"stack/push-pop-frame"
      (let mem = Machine.Memory.create ~base:0x1000 ~size:0x100000 in
       let stack =
         Machine.Stack.create mem ~base:0x1000 ~size:0x100000
           ~protection:Machine.Stack.Stackguard
       in
       stage (fun () ->
           Machine.Stack.push_frame stack ~func:"f" ~ret_addr:0x8000000
             ~locals:[ ("buf", 200) ];
           Machine.Stack.pop_frame stack));
    Test.make ~name:"fmt/interpret-8-directives"
      (let mem = Machine.Memory.create ~base:0x1000 ~size:0x10000 in
       stage (fun () ->
           Apps.Format_interp.interpret mem ~fmt:"%8x%8x%8x%8x%8x%8x%8x%8x"
             ~arg_cursor:0x1000));
    Test.make ~name:"predicate/eval-index-check"
      (let p = Pfsm.Predicate.between Pfsm.Predicate.Self ~low:0 ~high:100 in
       stage (fun () -> Pfsm.Predicate.holds ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int 42) p));
    Test.make ~name:"predicate/eval-double-decode"
      (let p =
         Pfsm.Predicate.Not
           (Pfsm.Predicate.Contains (Pfsm.Predicate.Decode (2, Pfsm.Predicate.Self), "../"))
       in
       stage (fun () ->
           Pfsm.Predicate.holds ~env:Pfsm.Env.empty
             ~self:(Pfsm.Value.Str "..%252f..%252fwinnt%252fsystem32") p));
    Test.make ~name:"witness/search-36-candidates"
      (let pfsm =
         Pfsm.Primitive.make ~name:"p" ~kind:Pfsm.Taxonomy.Content_attribute_check
           ~activity:"a"
           ~spec:(Pfsm.Predicate.between Pfsm.Predicate.Self ~low:0 ~high:100)
           ~impl:Pfsm.Predicate.True
       in
       let candidates =
         List.map
           (fun x -> Pfsm.Witness.candidate (Pfsm.Value.Int x))
           (Discovery.Domain_gen.int_candidates ~seed:3 ~n:20)
       in
       stage (fun () -> Pfsm.Witness.hidden_witnesses pfsm ~candidates));
    Test.make ~name:"scheduler/interleavings-3x2"
      (stage (fun () -> Osmodel.Scheduler.interleavings [ 1; 2; 3 ] [ 4; 5 ]));
    Test.make ~name:"strcodec/percent-decode"
      (stage (fun () ->
           Pfsm.Strcodec.percent_decode_n 2 "..%252f..%252fwinnt%252fsystem32%252fcmd.exe"));
    Test.make ~name:"heap/validate-arena"
      (let mem = Machine.Memory.create ~base:0x1000 ~size:0x100000 in
       let heap = Machine.Heap.create mem ~base:0x1000 ~size:0x100000 ~safe_unlink:false in
       let live =
         List.filter_map (fun i -> Machine.Heap.malloc heap (64 + (i * 8)))
           (List.init 32 (fun i -> i))
       in
       List.iteri (fun i u -> if i mod 2 = 0 then Machine.Heap.free heap u) live;
       stage (fun () -> Machine.Heap.validate heap));
    Test.make ~name:"verify/exhaustive-4k-ints"
      (let pfsm =
         Pfsm.Primitive.make ~name:"p" ~kind:Pfsm.Taxonomy.Content_attribute_check
           ~activity:"a"
           ~spec:(Pfsm.Predicate.between Pfsm.Predicate.Self ~low:0 ~high:100)
           ~impl:
             (Pfsm.Predicate.Cmp
                (Pfsm.Predicate.Le, Pfsm.Predicate.Self,
                 Pfsm.Predicate.Lit (Pfsm.Value.Int 100)))
       in
       stage (fun () ->
           Pfsm.Verify.verify pfsm (Pfsm.Verify.Int_range { low = -2048; high = 2048 })));
    Test.make ~name:"vulndb/csv-export-5925"
      (let db = Vulndb.Synth.generate ~seed:3 in
       stage (fun () -> Vulndb.Csv.of_database db));
    Test.make ~name:"vulndb/trend-per-year"
      (let db = Vulndb.Synth.generate ~seed:3 in
       stage (fun () -> Vulndb.Trend.per_year db));
    Test.make ~name:"parse/predicate"
      (stage (fun () ->
           Pfsm.Parse.predicate "(self >= 0 && self <= 100) || !(contains(decode^2(self), \"../\"))"));
    Test.make ~name:"simplify/fixpoint"
      (let p =
         Pfsm.Predicate.And
           (Pfsm.Predicate.Not (Pfsm.Predicate.Not (Pfsm.Predicate.Env_flag "k")),
            Pfsm.Predicate.Or
              (Pfsm.Predicate.True,
               Pfsm.Predicate.Contains (Pfsm.Predicate.Self, "../")))
       in
       stage (fun () -> Pfsm.Simplify.simplify p));
    Test.make ~name:"auto/extract+verify"
      (stage (fun () ->
           match
             Minic.Extract.impl_predicate Minic.Corpus.tTflag_vulnerable
               ~object_var:Minic.Corpus.tTflag_object
           with
           | Some impl ->
               let pfsm =
                 Pfsm.Primitive.make ~name:"auto"
                   ~kind:Pfsm.Taxonomy.Content_attribute_check ~activity:"a"
                   ~spec:Minic.Corpus.tTflag_spec ~impl
               in
               Some (Pfsm.Verify.verify pfsm (Pfsm.Verify.Int_range { low = -512; high = 512 }))
           | None -> None));
    Test.make ~name:"auto/interp-tTflag"
      (stage (fun () ->
           Minic.Corpus.run_tTflag Minic.Corpus.tTflag_vulnerable ~str_x:"42" ~str_i:"7"));
    Test.make ~name:"baselines/markov-metf"
      (let app = Apps.Sendmail.setup () in
       let model = Apps.Sendmail.model app in
       let scenario = Apps.Sendmail.exploit_scenario app in
       stage (fun () -> Baselines.Markov.metf_of_model ~retry:0.2 model ~scenario));
    Test.make ~name:"baselines/attack-graph"
      (let app = Apps.Sendmail.setup () in
       let report =
         Pfsm.Analysis.analyze (Apps.Sendmail.model app)
           ~scenarios:
             [ Apps.Sendmail.exploit_scenario app; Apps.Sendmail.benign_scenario ]
       in
       stage (fun () ->
           let g = Baselines.Attack_graph.of_report report in
           Baselines.Attack_graph.min_hidden_cut g));
    Test.make ~name:"ablation/aslr-ghttpd"
      (stage (fun () ->
           let reference = Apps.Ghttpd.setup () in
           let request = Exploit.Attack.ghttpd_request reference in
           let victim = Apps.Ghttpd.setup ~aslr_seed:Exploit.Ablation.aslr_seed () in
           Apps.Ghttpd.serve victim ~request));
    Test.make ~name:"lint/absint-readpostdata"
      (stage (fun () ->
           Staticcheck.Absint.analyze ~config:Staticcheck.Linter.corpus_config
             Minic.Corpus.read_post_data_buggy));
    Test.make ~name:"lint/validate-tTflag"
      (stage (fun () ->
           Staticcheck.Linter.lint ~config:Staticcheck.Linter.corpus_config
             Minic.Corpus.tTflag_vulnerable));
    Test.make ~name:"lint/corpus-sweep"
      (stage (fun () -> Staticcheck.Linter.corpus_sweep ()));
    Test.make ~name:"resilience/raw-sweep"
      (stage (fun () -> Staticcheck.Linter.corpus_sweep ()));
    Test.make ~name:"resilience/supervised-sweep"
      (stage (fun () -> Staticcheck.Linter.supervised_sweep ~parallel:true ()));
    Test.make ~name:"resilience/retry-schedule"
      (stage (fun () -> Resilience.Retry.delays Resilience.Retry.default));
    Test.make ~name:"resilience/breaker-trip-cycle"
      (stage (fun () ->
           let b = Resilience.Breaker.create ~resource:"bench" () in
           for t = 0 to 2 do
             if Resilience.Breaker.acquire b ~now:t then
               Resilience.Breaker.failure b ~now:t ~cause:"bench fault"
           done;
           Resilience.Breaker.state b)) ]

let run_benchmarks () =
  section "BECHAMEL -- micro-benchmarks (ns per run, OLS estimate)";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.2) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let run_group group_name tests =
    Format.printf "@.[%s]@." group_name;
    let grouped = Test.make_grouped ~name:group_name tests in
    let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun name ols acc ->
           let estimate =
             match Analyze.OLS.estimates ols with
             | Some (e :: _) -> e
             | Some [] | None -> nan
           in
           let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
           (name, estimate, r2) :: acc)
        results []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    in
    List.iter
      (fun (name, estimate, r2) ->
         Format.printf "  %-44s %14.1f ns/run   (r² = %.3f)@." name estimate r2;
         record ~section:("BECHAMEL-" ^ group_name) (name ^ "-ns") estimate)
      rows
  in
  run_group "experiments" experiment_tests;
  run_group "substrate" substrate_tests

let usage () =
  prerr_endline
    "usage: bench [--smoke] [--json [FILE]] [--compare FILE] [--threshold PCT]\n\
    \  --smoke          fast subset (figure 1, lint sweep, resilience, PAR, OBS, SERVE, STORE, PERF, CORPUS)\n\
    \  --json [FILE]    also write metrics as JSON (default BENCH.json)\n\
    \  --compare FILE   diff this run's cost metrics (-ms/-s/-bytes keys)\n\
    \                   against a committed baseline JSON; exit 1 on any\n\
    \                   regression past the threshold\n\
    \  --threshold PCT  regression tolerance for --compare (default 20)";
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
    | "--threshold" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some p when p >= 0. ->
            threshold := p;
            go rest
        | _ ->
            Printf.eprintf "bench: bad threshold %S\n" pct;
            usage ())
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
    resilience ();
    par_bench ();
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
    resilience ();
    par_bench ();
    obs_bench ();
    serve_bench ();
    store_bench ();
    perf_bench ();
    corpus_bench ();
    run_benchmarks ()
  end;
  (match !json_out with Some path -> write_json path | None -> ());
  Par.teardown ();
  (match !compare_baseline with
   | Some path -> compare_with_baseline path
   | None -> ());
  Format.printf "@.done.@."
