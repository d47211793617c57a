(* The serve layer: JSON codec round trips, protocol parsing, bounded
   admission, and the request loop's contract — exactly one typed
   response per admitted request, typed shedding past the bound,
   per-class breaker isolation, fuel deadlines, graceful drain, and a
   response stream byte-identical at every job count. *)

module S = Serve.Server
module P = Serve.Protocol
module J = Serve.Json

let with_jobs j f =
  Par.set_jobs j;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

(* ---- json --------------------------------------------------------- *)

let test_json_values () =
  let roundtrip s =
    match J.parse s with
    | Ok v -> J.to_string v
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check string) "object" {|{"a": 1, "b": [true, null, "x"]}|}
    (roundtrip {| {"a": 1, "b": [true, null, "x"]} |});
  Alcotest.(check string) "negative int" "-42" (roundtrip "-42");
  Alcotest.(check string) "escapes" {|"a\"b\\c\nd"|}
    (roundtrip {|"a\"b\\c\nd"|});
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (J.parse "1 2"));
  Alcotest.(check bool) "unterminated string rejected" true
    (Result.is_error (J.parse {|{"a": "b|}));
  Alcotest.(check bool) "bare word rejected" true
    (Result.is_error (J.parse "nope"));
  match J.parse {|{"x": 3, "x": 4}|} with
  | Ok v -> Alcotest.(check (option int)) "first binding wins" (Some 3)
              (J.field_int "x" v)
  | Error e -> Alcotest.failf "duplicate-field object: %s" e

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) small_signed_int;
        map (fun s -> J.Str s) (string_size ~gen:printable (int_range 0 8)) ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [ (2, scalar);
            (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (n / 2))));
            (1,
             map
               (fun ps -> J.Obj ps)
               (list_size (int_range 0 4)
                  (pair (string_size ~gen:printable (int_range 1 6))
                     (self (n / 2))))) ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: print/parse round trip" ~count:300
    (QCheck.make json_gen ~print:(fun v -> J.to_string v))
    (fun v ->
       match J.parse (J.to_string v) with
       | Ok v' -> J.to_string v' = J.to_string v
       | Error _ -> false)

(* ---- protocol ----------------------------------------------------- *)

let test_protocol_parse () =
  (match P.parse ~line_id:"line:1" {|{"id":"a","kind":"lint","target":"corpus"}|} with
   | Ok (P.Work { id = "a"; fuel = None; work = P.Lint { target = "corpus" } }) -> ()
   | _ -> Alcotest.fail "lint request");
  (match P.parse ~line_id:"line:1" {|{"kind":"analyze","app":"xterm","fuel":9}|} with
   | Ok (P.Work { id = "line:1"; fuel = Some 9; work = P.Analyze { app = "xterm" } })
     -> ()
   | _ -> Alcotest.fail "id defaults to the line id; fuel carried");
  (match P.parse ~line_id:"x" {|{"kind":"boom"}|} with
   | Ok (P.Work { work = P.Boom { mode = "crash"; times = t }; _ }) ->
       Alcotest.(check bool) "boom defaults" true (t = max_int)
   | _ -> Alcotest.fail "boom defaults");
  (match P.parse ~line_id:"x" {|{"kind":"stats"}|} with
   | Ok (P.Stats { full = false; _ }) -> ()
   | _ -> Alcotest.fail "stats defaults to partial");
  (match P.parse ~line_id:"x" {|{"kind":"flush"}|} with
   | Ok P.Flush -> ()
   | _ -> Alcotest.fail "flush");
  (match P.parse ~line_id:"x" {|{"kind":"shutdown"}|} with
   | Ok P.Shutdown -> ()
   | _ -> Alcotest.fail "shutdown");
  Alcotest.(check bool) "unknown kind is typed" true
    (Result.is_error (P.parse ~line_id:"x" {|{"kind":"frobnicate"}|}));
  Alcotest.(check bool) "missing field is typed" true
    (Result.is_error (P.parse ~line_id:"x" {|{"kind":"analyze"}|}));
  Alcotest.(check bool) "non-object is typed" true
    (Result.is_error (P.parse ~line_id:"x" "[1,2]"))

(* ---- admission ---------------------------------------------------- *)

let test_admission_bound () =
  let q = Serve.Admission.create ~capacity:3 in
  let outcomes = List.map (Serve.Admission.admit q) [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check int) "bounded: nothing buffered past capacity" 3
    (Serve.Admission.depth q);
  Alcotest.(check bool) "first three admitted, rest shed" true
    (outcomes = [ `Admitted; `Admitted; `Admitted; `Shed; `Shed ]);
  Alcotest.(check (list int)) "drain is FIFO" [ 1; 2; 3 ]
    (Serve.Admission.drain q);
  Alcotest.(check int) "drain empties" 0 (Serve.Admission.depth q);
  Alcotest.(check bool) "capacity restored after drain" true
    (Serve.Admission.admit q 6 = `Admitted);
  Alcotest.(check int) "admitted is a running total" 4
    (Serve.Admission.admitted q);
  Alcotest.(check int) "shed is a running total" 2 (Serve.Admission.shed q);
  let clamped = Serve.Admission.create ~capacity:(-5) in
  Alcotest.(check int) "capacity clamps to 1" 1
    (Serve.Admission.capacity clamped)

(* ---- the request loop --------------------------------------------- *)

let script =
  [ {|{"id":"a1","kind":"analyze","app":"sendmail"}|};
    {|{"id":"e1","kind":"exploit","app":"iis"}|};
    {|{"id":"bad-app","kind":"analyze","app":"nonesuch"}|};
    {|{"id":"tiny","kind":"lint","target":"corpus","fuel":2}|};
    {|{"id":"b1","kind":"boom","mode":"crash"}|};
    "";
    "# a comment line";
    {|{"kind":"flush"}|};
    {|{"id":"s1","kind":"stats"}|};
    "definitely not json";
    {|{"id":"l1","kind":"lint","target":"tTflag (vulnerable)"}|};
    {|{"kind":"shutdown"}|} ]

let run_with ?config lines = S.run_script ?config lines

let status_of line =
  match J.parse line with
  | Ok v -> Option.value ~default:"?" (J.field_str "status" v)
  | Error e -> Alcotest.failf "response is not JSON: %s (%s)" line e

let id_of line =
  match J.parse line with
  | Ok v -> Option.value ~default:"?" (J.field_str "id" v)
  | Error _ -> "?"

let test_statuses () =
  let lines, s = run_with script in
  Alcotest.(check bool) "drained" true s.S.drained;
  Alcotest.(check bool) "accounted: one terminal response per admitted" true
    (S.accounted s);
  Alcotest.(check int) "six admitted" 6 s.S.admitted;
  Alcotest.(check int) "one malformed line" 1 s.S.malformed;
  let status id =
    match List.find_opt (fun l -> id_of l = id) lines with
    | Some l -> status_of l
    | None -> Alcotest.failf "no response for %s" id
  in
  Alcotest.(check string) "analyze ok" "ok" (status "a1");
  Alcotest.(check string) "exploit ok" "ok" (status "e1");
  Alcotest.(check string) "unknown app is a typed error" "error"
    (status "bad-app");
  Alcotest.(check string) "fuel exhaustion is a typed deadline" "deadline"
    (status "tiny");
  Alcotest.(check string) "crash quarantines" "quarantined" (status "b1");
  Alcotest.(check string) "malformed line answered by line id" "error"
    (status "line:10");
  Alcotest.(check string) "summary is the last line" "summary"
    (status_of (List.nth lines (List.length lines - 1)))

let test_overload_shedding () =
  let config = { S.default_config with S.capacity = 2 } in
  let burst =
    List.init 5 (fun i ->
        Printf.sprintf {|{"id":"r%d","kind":"lint","target":"Log (fixed)"}|} i)
  in
  let lines, s = run_with ~config (burst @ [ {|{"kind":"shutdown"}|} ]) in
  Alcotest.(check int) "two admitted" 2 s.S.admitted;
  Alcotest.(check int) "three shed with a typed response" 3 s.S.shed;
  Alcotest.(check bool) "accounted" true (S.accounted s);
  let overloaded =
    List.filter (fun l -> status_of l = "overloaded") lines
  in
  Alcotest.(check int) "every shed request answered" 3 (List.length overloaded);
  (* stats must answer even when the queue is full *)
  let lines2, _ =
    run_with ~config
      (List.filteri (fun i _ -> i < 4) burst
       @ [ {|{"id":"s","kind":"stats"}|}; {|{"kind":"shutdown"}|} ])
  in
  match List.find_opt (fun l -> id_of l = "s") lines2 with
  | Some l -> Alcotest.(check string) "stats bypasses admission" "ok" (status_of l)
  | None -> Alcotest.fail "stats starved by a full queue"

let test_breaker_isolation () =
  (* a poison class (boom crashes) trips its breaker; lint work in the
     same batches is untouched *)
  let booms =
    List.init 6 (fun i ->
        Printf.sprintf {|{"id":"b%d","kind":"boom","mode":"crash"}|} i)
  in
  let lints =
    List.init 6 (fun i ->
        Printf.sprintf {|{"id":"l%d","kind":"lint","target":"Log (fixed)"}|} i)
  in
  let interleaved =
    List.concat_map (fun (b, l) -> [ b; l ]) (List.combine booms lints)
  in
  let config = { S.default_config with S.capacity = 32 } in
  let lines, s = run_with ~config (interleaved @ [ {|{"kind":"shutdown"}|} ]) in
  Alcotest.(check bool) "accounted" true (S.accounted s);
  List.iteri
    (fun i l ->
       Alcotest.(check string)
         (Printf.sprintf "lint l%d unaffected by the boom breaker" i)
         "ok"
         (status_of l))
    (List.filter (fun l -> String.length (id_of l) > 0 && (id_of l).[0] = 'l')
       lines);
  Alcotest.(check int) "every boom quarantined" 6 s.S.quarantined

let test_drain_semantics () =
  (* lines after shutdown are never read; queued work still completes *)
  let lines, s =
    run_with
      [ {|{"id":"w1","kind":"lint","target":"Log (fixed)"}|};
        {|{"kind":"shutdown"}|};
        {|{"id":"never","kind":"lint","target":"Log (fixed)"}|} ]
  in
  Alcotest.(check bool) "drained" true s.S.drained;
  Alcotest.(check int) "queued work finished during drain" 1 s.S.completed;
  Alcotest.(check bool) "post-shutdown line never admitted" true
    (not (List.exists (fun l -> id_of l = "never") lines));
  (* EOF with work still queued drains too *)
  let _, s2 = run_with [ {|{"id":"w1","kind":"lint","target":"Log (fixed)"}|} ] in
  Alcotest.(check bool) "EOF drains the queue" true
    (s2.S.drained && s2.S.completed = 1)

let test_job_count_identity () =
  let run j = with_jobs j (fun () -> run_with script) in
  let lines1, s1 = run 1 in
  let lines2, _ = run 2 in
  let lines4, _ = run 4 in
  Alcotest.(check (list string)) "-j2 stream = -j1 stream" lines1 lines2;
  Alcotest.(check (list string)) "-j4 stream = -j1 stream" lines1 lines4;
  Alcotest.(check string) "summary JSON identical" (S.summary_to_json s1)
    (let _, s4 = run 4 in
     S.summary_to_json s4)

let test_latency_percentiles () =
  Alcotest.(check int) "empty" 0 (S.percentile 99 []);
  Alcotest.(check int) "p50 of 1..10" 5 (S.percentile 50 [ 10; 9; 8; 7; 6; 5; 4; 3; 2; 1 ]);
  Alcotest.(check int) "p99 of 1..10" 10 (S.percentile 99 [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
  Alcotest.(check int) "p1 is the minimum" 1 (S.percentile 1 [ 3; 1; 2 ])

let test_retry_attempts_metric () =
  (* every serve backoff is a retry attempt: the resilience counter
     moves by exactly the number of backoff instants in the trace *)
  let attempts = Obs.Metrics.counter "resilience.retry.attempts" in
  let before = Obs.Metrics.counter_value attempts in
  Obs.Trace.start ();
  let _, s =
    run_with
      [ {|{"id":"f1","kind":"boom","mode":"fault","times":2}|};
        {|{"id":"p1","kind":"boom","mode":"fault","times":9}|};
        {|{"id":"r1","kind":"boom","mode":"reject"}|};
        {|{"kind":"shutdown"}|} ]
  in
  let backoffs =
    List.length
      (List.filter
         (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = "backoff")
         (Obs.Trace.drain ()))
  in
  Alcotest.(check bool) "accounted" true (S.accounted s);
  Alcotest.(check bool) "the script backs off" true (backoffs > 0);
  Alcotest.(check int) "one retry attempt per backoff" backoffs
    (Obs.Metrics.counter_value attempts - before)

(* ---- the chaos soak ----------------------------------------------- *)

let test_soak_smoke () =
  let report = Chaos.soak ~plans:Fault.Catalog.smoke () in
  Alcotest.(check (list string)) "soak contract under the smoke plans" []
    (Chaos.soak_violations report);
  List.iter
    (fun (sr : Chaos.soak_run) ->
       Alcotest.(check bool)
         (Printf.sprintf "plan %s sheds deterministically"
            sr.Chaos.soak_plan.Fault.Plan.name)
         true
         (sr.Chaos.summary.S.shed = report.Chaos.expect_shed))
    report.Chaos.soak_runs

let test_soak_stable () =
  Alcotest.(check bool) "soak: same seed, byte-identical JSON" true
    (Chaos.soak_stable ~plans:Fault.Catalog.smoke ())

(* ---- suite -------------------------------------------------------- *)

let () =
  Alcotest.run "serve"
    [ ("json",
       [ Alcotest.test_case "values and errors" `Quick test_json_values;
         QCheck_alcotest.to_alcotest prop_json_roundtrip ]);
      ("protocol",
       [ Alcotest.test_case "request parsing" `Quick test_protocol_parse ]);
      ("admission",
       [ Alcotest.test_case "bounded queue" `Quick test_admission_bound ]);
      ("server",
       [ Alcotest.test_case "typed statuses" `Quick test_statuses;
         Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
         Alcotest.test_case "breaker class isolation" `Quick
           test_breaker_isolation;
         Alcotest.test_case "graceful drain" `Quick test_drain_semantics;
         Alcotest.test_case "byte-identical at every -j" `Quick
           test_job_count_identity;
         Alcotest.test_case "percentiles" `Quick test_latency_percentiles;
         Alcotest.test_case "backoffs count as retry attempts" `Quick
           test_retry_attempts_metric ]);
      ("soak",
       [ Alcotest.test_case "smoke contract" `Quick test_soak_smoke;
         Alcotest.test_case "stable" `Quick test_soak_stable ]) ]
