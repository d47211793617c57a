(* Tests for lib/staticcheck: the interval domain, CFG path
   addressing, the abstract interpreter on the corpus, the
   validation bridge, and the full sweep with its expectations. *)

module A = Minic.Ast
module I = Minic.Interp
module C = Minic.Corpus
module Iv = Staticcheck.Interval
module Cfg = Staticcheck.Cfg
module Ai = Staticcheck.Absint
module F = Staticcheck.Finding
module L = Staticcheck.Linter
module G = Staticcheck.Progen

let itv = Alcotest.testable (fun ppf t -> Iv.pp ppf t) Iv.equal

(* ---- interval domain ----------------------------------------------- *)

let test_interval_lattice () =
  Alcotest.check itv "join" (Iv.range 0 10) (Iv.join (Iv.range 0 3) (Iv.range 5 10));
  Alcotest.check itv "meet" (Iv.range 5 7) (Iv.meet (Iv.range 0 7) (Iv.range 5 10));
  Alcotest.check itv "disjoint meet" Iv.bot (Iv.meet (Iv.range 0 3) (Iv.range 5 10));
  Alcotest.(check bool) "subset" true (Iv.subset (Iv.range 2 3) (Iv.range 0 10));
  Alcotest.check itv "const arith" (Iv.const 12)
    (Iv.add (Iv.const 5) (Iv.const 7));
  Alcotest.check itv "sub range" (Iv.range (-10) 7)
    (Iv.sub (Iv.range 0 10) (Iv.range 3 10));
  Alcotest.check itv "mul signs" (Iv.range (-20) 20)
    (Iv.mul (Iv.range (-2) 2) (Iv.range 5 10))

let test_interval_widen () =
  (* A grown upper bound jumps to +inf; a stable one stays. *)
  Alcotest.check itv "hi widens"
    (Iv.of_bounds (Iv.Fin 0) Iv.Pinf)
    (Iv.widen (Iv.range 0 10) (Iv.range 0 11));
  Alcotest.check itv "lo widens"
    (Iv.of_bounds Iv.Minf (Iv.Fin 10))
    (Iv.widen (Iv.range 0 10) (Iv.range (-1) 10));
  Alcotest.check itv "stable fixpoint" (Iv.range 0 10)
    (Iv.widen (Iv.range 0 10) (Iv.range 0 10))

let test_interval_refine () =
  let a, b = Iv.refine Iv.Lt (Iv.range 0 100) (Iv.range 0 50) in
  Alcotest.check itv "a under a < b" (Iv.range 0 49) a;
  Alcotest.check itv "b under a < b" (Iv.range 1 50) b;
  let a, _ = Iv.refine Iv.Ge (Iv.range 0 100) (Iv.const 60) in
  Alcotest.check itv "a under a >= 60" (Iv.range 60 100) a;
  let a, _ = Iv.refine Iv.Eq (Iv.range 0 100) (Iv.range 200 300) in
  Alcotest.check itv "infeasible eq" Iv.bot a

(* ---- CFG path addressing ------------------------------------------- *)

let test_cfg_addressing () =
  let cfg = Cfg.build C.read_post_data_buggy in
  Alcotest.(check bool) "has a back edge" true (Cfg.back_edge_count cfg = 1);
  (* 3.0.0 is the recv inside the while body. *)
  (match Cfg.stmt_at cfg [ 3; 0; 0 ] with
   | Some (A.Recv_into (_, "PostData", _, _)) -> ()
   | _ -> Alcotest.fail "expected the recv at 3.0.0");
  let s = Cfg.path_to_string cfg [ 3; 0; 0 ] in
  Alcotest.(check bool) "resolved path names the loop body" true
    (String.length s > 0 && String.sub s 0 1 = "3")

let test_cfg_counts () =
  let cfg = Cfg.build C.log_vulnerable in
  Alcotest.(check bool) "straight line: nodes = stmts + entry/exit" true
    (Cfg.node_count cfg = List.length C.log_vulnerable.A.body + 2);
  Alcotest.(check int) "no back edges" 0 (Cfg.back_edge_count cfg)

(* ---- abstract interpreter on the corpus ----------------------------- *)

let corpus_lint f = L.lint ~config:L.corpus_config f

let kinds r = List.map (fun f -> F.kind_name f.F.kind) r.L.findings

let test_absint_tTflag () =
  let r = corpus_lint C.tTflag_vulnerable in
  Alcotest.(check (list string)) "both kinds"
    [ "array-store-oob-low"; "atoi-wrap-index" ]
    (List.sort compare (kinds r));
  List.iter
    (fun f -> Alcotest.(check bool) "confirmed" true (F.is_confirmed f))
    r.L.findings;
  Alcotest.(check (list string)) "fixed variant clean" []
    (kinds (corpus_lint C.tTflag_fixed))

let test_absint_distinguishes_off_by_one () =
  Alcotest.(check (list string)) "unbounded" [ "strcpy-unbounded" ]
    (kinds (corpus_lint C.log_vulnerable));
  Alcotest.(check (list string)) "off-by-one" [ "strcpy-off-by-one" ]
    (kinds (corpus_lint C.log_off_by_one));
  Alcotest.(check (list string)) "fixed clean" []
    (kinds (corpus_lint C.log_fixed))

let test_absint_widening_converges () =
  (* The || loop accumulates an offset; widening must close the
     fixpoint in a handful of rounds, not the 64-round safety cap. *)
  let r = corpus_lint C.read_post_data_buggy in
  Alcotest.(check bool) "few iterations" true (r.L.loop_iterations < 10);
  Alcotest.(check bool) "widened at least once" true (r.L.widenings >= 1);
  Alcotest.(check (list string)) "recv flagged" [ "recv-overflow" ] (kinds r);
  (* The && fix bounds the same loop; symbolic bounds prove it clean. *)
  Alcotest.(check (list string)) "fix clean" []
    (kinds (corpus_lint C.read_post_data_fixed))

let test_confirmed_witnesses_replay () =
  (* Every Confirmed finding carries a witness the interpreter
     reproduces — re-run each one and require the same violation. *)
  let rows = L.corpus_sweep () in
  let replayed = ref 0 in
  List.iter
    (fun row ->
       List.iter
         (fun f ->
            match f.F.status with
            | F.Unconfirmed -> Alcotest.fail ("unconfirmed: " ^ f.F.site)
            | F.Confirmed w ->
                incr replayed;
                let outcome =
                  I.run ~arrays:w.F.arrays ~socket:w.F.socket row.L.report.L.func
                    ~args:w.F.args
                in
                Alcotest.(check bool)
                  ("witness replays for " ^ F.kind_name f.F.kind)
                  true
                  (F.outcome_matches f.F.kind outcome))
         row.L.report.L.findings)
    rows;
  Alcotest.(check bool) "some witnesses replayed" true (!replayed >= 5)

(* Replay swallows simulated conditions only.  A crash inside the
   interpreter (here, an effect observer raising mid-recv) must escape
   instead of quietly turning a confirmable finding into Unconfirmed. *)
let read_post_data_replay () =
  match (Ai.analyze ~config:L.corpus_config C.read_post_data_buggy).Ai.raws with
  | [] -> Alcotest.fail "no finding on ReadPOSTData"
  | raw :: _ ->
      Staticcheck.Validate.replay ~config:L.corpus_config C.read_post_data_buggy raw

let test_replay_propagates_crashes () =
  match Osmodel.Effect.with_observer (fun _ -> raise Exit) read_post_data_replay with
  | F.Confirmed _ | F.Unconfirmed -> Alcotest.fail "replay swallowed the crash"
  | exception Exit -> ()

let test_replay_skips_simulated () =
  (* every recv resets: no candidate is a witness, and none crashes *)
  let reset_now =
    { Fault.Plan.none with
      name = "reset-now"; benign = false; socket_reset_after = Some 0 }
  in
  match Fault.Hooks.with_plan reset_now read_post_data_replay with
  | F.Unconfirmed -> ()
  | F.Confirmed _ -> Alcotest.fail "confirmed through a reset connection"

let test_sweep_meets_expectations () =
  let rows = L.corpus_sweep () in
  List.iter
    (fun row ->
       Alcotest.(check bool) ("row ok: " ^ row.L.label) true row.L.ok)
    rows;
  Alcotest.(check bool) "sweep ok" true (L.sweep_ok rows)

let test_pfsm_corroboration () =
  (* The second validation leg: pFSM verification refutes the same
     sites the linter flags. *)
  let r = corpus_lint C.tTflag_vulnerable in
  List.iter
    (fun f ->
       match f.F.pfsm with
       | Some note ->
           Alcotest.(check bool) ("refuted: " ^ note) true
             (String.length note >= 7 && String.sub note 0 7 = "refuted")
       | None -> Alcotest.fail "no corroboration")
    r.L.findings

let test_json_renders () =
  let rows = L.corpus_sweep () in
  let json = Json.to_string (L.sweep_to_json rows) in
  Alcotest.(check bool) "ok flag" true
    (String.length json > 2 && String.sub json 0 11 = {|{"ok": true|});
  (* keep it parseable by eye: balanced braces *)
  let depth = ref 0 and min_depth = ref 0 in
  String.iter
    (fun c ->
       if c = '{' then incr depth
       else if c = '}' then decr depth;
       if !depth < !min_depth then min_depth := !depth)
    json;
  Alcotest.(check int) "balanced" 0 !depth;
  Alcotest.(check int) "never negative" 0 !min_depth

(* ---- seeded linter property ----------------------------------------- *)

(* On random guard-then-sink programs, the linter flags exactly the
   constant choices that admit an overflow, and every Confirmed
   finding's stored witness reproduces the violation in the
   interpreter. *)
let prop_linter_precise_and_witnessed =
  QCheck.Test.make
    ~name:"staticcheck: flags iff vulnerable; witnesses reproduce" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let v = G.vuln ~seed in
       let config = { Ai.default_config with Ai.arrays = v.G.arrays } in
       let r = L.lint ~config v.G.f in
       let flagged = r.L.findings <> [] in
       flagged = v.G.vulnerable
       && List.for_all
            (fun f ->
               match f.F.status with
               | F.Unconfirmed -> false
               | F.Confirmed w ->
                   F.outcome_matches f.F.kind
                     (I.run ~arrays:w.F.arrays ~socket:w.F.socket v.G.f
                        ~args:w.F.args))
            r.L.findings)

(* ---- absint vs its Smap reference -------------------------------- *)

(* [Absint_ref] is the pre-slot string-map interpreter, kept as the
   executable specification; the production analyzer must match it
   finding for finding and fixpoint count for fixpoint count. *)

let result_sig (r : Ai.result) =
  (List.map (fun (raw : Ai.raw) -> (F.kind_name raw.Ai.kind, raw.Ai.path, raw.Ai.detail))
     r.Ai.raws,
   r.Ai.loop_iterations,
   r.Ai.widenings)

let sig_t =
  Alcotest.(triple (list (triple string (list int) string)) int int)

let test_absint_matches_reference_corpus () =
  List.iter
    (fun (name, f) ->
       Alcotest.check sig_t name
         (result_sig (Absint_ref.analyze ~config:L.corpus_config f))
         (result_sig (Ai.analyze ~config:L.corpus_config f)))
    C.all

let prop_absint_matches_reference_progen =
  let open QCheck in
  Test.make ~name:"slot-env absint = Smap reference on progen" ~count:60
    (int_range 0 100_000)
    (fun seed ->
       let f = G.func ~seed in
       result_sig (Ai.analyze f)
       = result_sig (Absint_ref.analyze f))

let () =
  Alcotest.run "staticcheck"
    [ ("interval",
       [ Alcotest.test_case "lattice + arithmetic" `Quick test_interval_lattice;
         Alcotest.test_case "widening" `Quick test_interval_widen;
         Alcotest.test_case "refine" `Quick test_interval_refine ]);
      ("cfg",
       [ Alcotest.test_case "path addressing" `Quick test_cfg_addressing;
         Alcotest.test_case "counts" `Quick test_cfg_counts ]);
      ("abstract interpreter",
       [ Alcotest.test_case "tTflag kinds" `Quick test_absint_tTflag;
         Alcotest.test_case "off-by-one distinguished" `Quick
           test_absint_distinguishes_off_by_one;
         Alcotest.test_case "widening converges" `Quick
           test_absint_widening_converges;
         Alcotest.test_case "matches Smap reference on corpus" `Quick
           test_absint_matches_reference_corpus;
         QCheck_alcotest.to_alcotest prop_absint_matches_reference_progen ]);
      ("validation",
       [ Alcotest.test_case "witnesses replay" `Quick
           test_confirmed_witnesses_replay;
         Alcotest.test_case "pFSM corroborates" `Quick test_pfsm_corroboration;
         Alcotest.test_case "replay propagates crashes" `Quick
           test_replay_propagates_crashes;
         Alcotest.test_case "replay skips simulated faults" `Quick
           test_replay_skips_simulated ]);
      ("sweep",
       [ Alcotest.test_case "expectations met" `Quick test_sweep_meets_expectations;
         Alcotest.test_case "json renders" `Quick test_json_renders;
         QCheck_alcotest.to_alcotest prop_linter_precise_and_witnessed ]) ]
