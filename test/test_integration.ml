(* Cross-module integration checks: rendered artefacts (Pretty/Dot)
   per application, baseline metrics across the whole model zoo,
   discovery over generated domains, and assorted boundary behaviour
   that no single-module suite pins down. *)

module P = Pfsm.Predicate
module V = Pfsm.Value

let contains ~needle h =
  let nh = String.length h and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub h i nn = needle || at (i + 1)) in
  nn > 0 && at 0

let model_zoo () =
  [ ("sendmail", Apps.Sendmail.model (Apps.Sendmail.setup ()),
     Apps.Sendmail.exploit_scenario (Apps.Sendmail.setup ()));
    ("nullhttpd",
     (let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
      Apps.Nullhttpd.model app),
     (let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
      let cl, body = Exploit.Attack.nullhttpd_6255 app in
      Apps.Nullhttpd.scenario ~content_len:cl ~body));
    ("xterm", Apps.Xterm.model (), Apps.Xterm.race_scenario);
    ("rwall", Apps.Rwall.model (Apps.Rwall.setup ()), Apps.Rwall.attack_scenario);
    ("iis", Apps.Iis.model (Apps.Iis.setup ()),
     Apps.Iis.scenario ~path:Exploit.Attack.iis_path);
    ("ghttpd",
     (let app = Apps.Ghttpd.setup () in
      Apps.Ghttpd.model app),
     (let app = Apps.Ghttpd.setup () in
      Apps.Ghttpd.scenario ~request:(Exploit.Attack.ghttpd_request app)));
    ("rpcstatd",
     (let app = Apps.Rpc_statd.setup () in
      Apps.Rpc_statd.model app),
     (let app = Apps.Rpc_statd.setup () in
      Apps.Rpc_statd.scenario ~filename:(Exploit.Attack.rpc_statd_filename app))) ]

(* ---- rendered artefacts -------------------------------------------- *)

let test_pretty_mentions_every_pfsm () =
  List.iter
    (fun (name, model, _) ->
       let text = Pfsm.Pretty.model_to_string model in
       List.iter
         (fun (op, pfsm) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s/%s rendered" name op pfsm.Pfsm.Primitive.name)
              true
              (contains ~needle:pfsm.Pfsm.Primitive.name text))
         (Pfsm.Model.all_pfsms model))
    (model_zoo ())

let test_pretty_marks_missing_checks () =
  List.iter
    (fun (name, model, _) ->
       let text = Pfsm.Pretty.model_to_string model in
       let has_missing =
         List.exists
           (fun (_, p) -> Pfsm.Primitive.missing_check p)
           (Pfsm.Model.all_pfsms model)
       in
       Alcotest.(check bool) (name ^ " '?' marker") has_missing
         (contains ~needle:"no check in implementation" text))
    (model_zoo ())

let test_dot_contains_operations () =
  List.iter
    (fun (name, model, _) ->
       let dot = Pfsm.Dot.of_model model in
       Alcotest.(check bool) (name ^ " digraph") true (contains ~needle:"digraph" dot);
       List.iteri
         (fun i _ ->
            Alcotest.(check bool)
              (Printf.sprintf "%s cluster_op%d" name i)
              true
              (contains ~needle:(Printf.sprintf "cluster_op%d" i) dot))
         (Pfsm.Model.operations model);
       (* vulnerable models must show at least one hidden edge *)
       Alcotest.(check bool) (name ^ " hidden edge") true
         (contains ~needle:"IMPL_ACPT" dot))
    (model_zoo ())

let test_trace_pp_reports_exploit () =
  List.iter
    (fun (name, model, scenario) ->
       let trace = Pfsm.Model.run model ~env:scenario in
       let text = Format.asprintf "%a" Pfsm.Trace.pp trace in
       Alcotest.(check bool) (name ^ " EXPLOITED in trace text") true
         (contains ~needle:"EXPLOITED" text))
    (model_zoo ())

(* ---- baselines across the zoo -------------------------------------- *)

let test_metf_finite_everywhere_vulnerable () =
  List.iter
    (fun (name, model, scenario) ->
       match Baselines.Markov.metf_of_model ~retry:0.25 model ~scenario with
       | Some e ->
           let hidden =
             Pfsm.Trace.hidden_count (Pfsm.Model.run model ~env:scenario)
           in
           let passthrough =
             List.length (Pfsm.Model.all_pfsms model) - hidden
           in
           (* k hidden obstacles at 1/p plus the free steps. *)
           Alcotest.(check (float 1e-6)) (name ^ " METF closed form")
             (float_of_int passthrough +. (float_of_int hidden /. 0.25))
             e
       | None -> Alcotest.fail (name ^ ": METF infinite on the exploit scenario"))
    (model_zoo ())

let test_attack_graph_zoo () =
  List.iter
    (fun (name, model, scenario) ->
       let report = Pfsm.Analysis.analyze model ~scenarios:[ scenario ] in
       let g = Baselines.Attack_graph.of_report report in
       Alcotest.(check bool) (name ^ " reachable") true
         (Baselines.Attack_graph.exploit_reachable g);
       Alcotest.(check bool) (name ^ " lemma") true
         (Baselines.Attack_graph.agrees_with_lemma g))
    (model_zoo ())

(* ---- discovery over generated domains ------------------------------ *)

let test_discovery_rwall_scenario_product () =
  let model = Apps.Rwall.model (Apps.Rwall.setup ()) in
  let scenarios =
    Discovery.Domain_gen.scenario_product
      [ ("user.is_root", [ V.Bool true; V.Bool false ]);
        ("target.kind", [ V.Str "terminal"; V.Str "regular file" ]) ]
  in
  Alcotest.(check int) "4 scenarios" 4 (List.length scenarios);
  let hits = (Discovery.Search.hidden_paths model ~scenarios).Discovery.Search.hits in
  let names =
    List.sort_uniq compare
      (List.map (fun h -> h.Discovery.Search.pfsm.Pfsm.Primitive.name) hits)
  in
  Alcotest.(check (list string)) "both pFSMs vulnerable" [ "pFSM1"; "pFSM2" ] names

let test_witness_nullhttpd_length_domain () =
  let app = Apps.Nullhttpd.setup () in
  let model = Apps.Nullhttpd.model app in
  let pfsm2 =
    match Pfsm.Model.all_pfsms model with
    | [ _; (_, p); _; _ ] -> p
    | _ -> Alcotest.fail "unexpected model shape"
  in
  let env =
    Pfsm.Env.empty |> Pfsm.Env.add_int "buffer.size" 1024
  in
  let candidates =
    List.map
      (fun s -> { Pfsm.Witness.env; obj = V.Str s })
      (Discovery.Domain_gen.length_strings ~seed:5 ~n:10 ~around:1024)
  in
  let witnesses = Pfsm.Witness.hidden_witnesses pfsm2 ~candidates in
  Alcotest.(check bool) "found oversized witnesses" true (witnesses <> []);
  List.iter
    (fun (w : Pfsm.Witness.candidate) ->
       Alcotest.(check bool) "witness longer than the buffer" true
         (String.length (V.as_str w.Pfsm.Witness.obj) > 1024))
    witnesses

(* ---- boundary behaviour -------------------------------------------- *)

let test_process_aslr_deterministic () =
  let a = Apps.Ghttpd.setup ~aslr_seed:9 () in
  let b = Apps.Ghttpd.setup ~aslr_seed:9 () in
  Alcotest.(check int) "same seed, same layout" (Apps.Ghttpd.expected_buf_addr a)
    (Apps.Ghttpd.expected_buf_addr b);
  let c = Apps.Ghttpd.setup ~aslr_seed:10 () in
  Alcotest.(check bool) "different seed, different layout" true
    (Apps.Ghttpd.expected_buf_addr a <> Apps.Ghttpd.expected_buf_addr c)

let test_heap_calloc_count_overflow () =
  let mem = Machine.Memory.create ~base:0x1000 ~size:0x10000 in
  let heap = Machine.Heap.create mem ~base:0x1000 ~size:0x8000 ~safe_unlink:false in
  (* 2^31 elements of 2 bytes wraps to 0 in 32-bit arithmetic. *)
  Alcotest.(check (option int)) "wrapped product rejected" None
    (Machine.Heap.calloc heap ~count:0x4000_0000 ~size:4)

let test_strcodec_percent_null_byte () =
  Alcotest.(check string) "%00 decodes to NUL" "\000" (Pfsm.Strcodec.percent_decode "%00");
  Alcotest.(check (list string)) "%hn reported as %n" [ "%n" ]
    (Pfsm.Strcodec.format_directives "%hn")

let test_payload_pattern_locatable () =
  (* Every aligned 4-byte window in the cyclic pattern is unique --
     that's what makes offsets recoverable. *)
  let p = Machine.Payload.pattern 256 in
  let windows = List.init 63 (fun i -> String.sub p (i * 4) 4) in
  Alcotest.(check int) "unique windows"
    (List.length windows)
    (List.length (List.sort_uniq compare windows))

let test_env_pp_lists_bindings () =
  let env = Pfsm.Env.empty |> Pfsm.Env.add_int "x" 1 |> Pfsm.Env.add_str "s" "v" in
  let text = Format.asprintf "%a" Pfsm.Env.pp env in
  Alcotest.(check bool) "x" true (contains ~needle:"x = 1" text);
  Alcotest.(check bool) "s" true (contains ~needle:"s = \"v\"" text)

let test_driver_row_counts_per_app () =
  Alcotest.(check (list (pair string int))) "rows per application"
    [ ("sendmail", 5); ("nullhttpd", 7); ("xterm", 3); ("rwall", 4); ("iis", 4);
      ("ghttpd", 5); ("rpcstatd", 6) ]
    (List.map
       (fun (app : Exploit.Table.app) ->
          (app.name, List.length (Exploit.Driver.rows app)))
       Exploit.Table.apps)

let test_sendmail_every_negative_index_unsafe () =
  (* Sampled sweep: every spec-violating index either corrupts memory,
     crashes, or lands the arbitrary write -- never a clean return. *)
  let app () = Apps.Sendmail.setup () in
  List.iter
    (fun x ->
       let o = Apps.Sendmail.tTflag (app ()) ~str_x:(string_of_int x) ~str_i:"1" in
       Alcotest.(check bool)
         (Printf.sprintf "x=%d compromised" x)
         true
         (Apps.Outcome.is_compromised o))
    [ -1; -2; -100; -1024; -4096; -100000 ]

let test_iis_decode_equivalents () =
  (* Different encodings of the same traversal all behave per their
     decode depth. *)
  let app = Apps.Iis.setup () in
  List.iter
    (fun (path, expect_blocked) ->
       let o = Apps.Iis.handle_request app path in
       Alcotest.(check bool) path expect_blocked
         (Apps.Outcome.verdict o = Apps.Outcome.Blocked))
    [ ("../x", true);            (* caught raw *)
      ("%2e%2e/x", true);        (* one decode makes ../ -- caught *)
      ("..%2fx", true);          (* one decode makes ../ -- caught *)
      ("..%252fx", false) ]      (* needs the second decode -- missed *)

let () =
  Alcotest.run "integration"
    [ ("rendered artefacts",
       [ Alcotest.test_case "pretty mentions pFSMs" `Quick
           test_pretty_mentions_every_pfsm;
         Alcotest.test_case "pretty marks missing checks" `Quick
           test_pretty_marks_missing_checks;
         Alcotest.test_case "dot per app" `Quick test_dot_contains_operations;
         Alcotest.test_case "trace pp" `Quick test_trace_pp_reports_exploit ]);
      ("baseline zoo",
       [ Alcotest.test_case "METF closed form everywhere" `Quick
           test_metf_finite_everywhere_vulnerable;
         Alcotest.test_case "attack graphs everywhere" `Quick test_attack_graph_zoo ]);
      ("discovery domains",
       [ Alcotest.test_case "rwall scenario product" `Quick
           test_discovery_rwall_scenario_product;
         Alcotest.test_case "nullhttpd length domain" `Quick
           test_witness_nullhttpd_length_domain ]);
      ("boundaries",
       [ Alcotest.test_case "aslr deterministic" `Quick test_process_aslr_deterministic;
         Alcotest.test_case "calloc count overflow" `Quick
           test_heap_calloc_count_overflow;
         Alcotest.test_case "strcodec NUL / %hn" `Quick test_strcodec_percent_null_byte;
         Alcotest.test_case "payload pattern" `Quick test_payload_pattern_locatable;
         Alcotest.test_case "env pp" `Quick test_env_pp_lists_bindings;
         Alcotest.test_case "driver row counts" `Quick test_driver_row_counts_per_app;
         Alcotest.test_case "negative indices unsafe" `Quick
           test_sendmail_every_negative_index_unsafe;
         Alcotest.test_case "iis decode equivalents" `Quick
           test_iis_decode_equivalents ]) ]
