(* The serve layer: JSON codec round trips, protocol parsing, bounded
   admission, and the request loop's contract — exactly one typed
   response per admitted request, typed shedding past the bound,
   per-class breaker isolation, fuel deadlines, graceful drain, a
   response stream byte-identical at every job count, and a live heap
   that stays flat over a long run. *)

module S = Serve.Server
module P = Serve.Protocol
module J = Serve.Json

let field key get v = Option.bind (J.mem key v) get

let with_jobs j f =
  Par.set_jobs j;
  Fun.protect ~finally:(fun () -> Par.set_jobs 1) f

(* ---- json --------------------------------------------------------- *)

let test_json_values () =
  let roundtrip s =
    match J.parse s with
    | Ok v -> J.to_string v
    | Error e -> Alcotest.failf "parse %S: %s" s (J.error_to_string e)
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
              (field "x" J.int v)
  | Error e -> Alcotest.failf "duplicate-field object: %s" (J.error_to_string e)

(* RFC 8259 numbers; \u escapes, surrogate pairs included, decode to
   UTF-8; invalid UTF-8 and unpaired surrogates are typed errors; the
   printer writes invalid bytes as U+FFFD; the three layouts. *)
let test_json_codec () =
  let parses s = Result.is_ok (J.parse s) in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") false (parses s))
    [ "01"; "1."; "-.5"; ".5"; "+1"; "-"; "1e"; "1e+"; "0x1"; "1_0" ];
  let value s =
    match J.parse s with
    | Ok v -> v
    | Error e -> Alcotest.failf "parse %S: %s" s (J.error_to_string e)
  in
  Alcotest.(check bool) "numbers" true
    (List.map value [ "0"; "-0"; "10"; "1.5"; "1e2"; "-0.25E-3" ]
     = [ J.Int 0; J.Int 0; J.Int 10; J.Float 1.5; J.Float 100.; J.Float (-0.00025) ]);
  Alcotest.(check bool) "an integer too large for int is a float" true
    (match value "123456789012345678901234567890" with J.Float _ -> true | _ -> false);
  Alcotest.(check bool) "\\u escapes decode to UTF-8" true
    (value {|"e\u00e9 \ud83d\ude00 \u20ac"|}
     = J.Str "e\xc3\xa9 \xf0\x9f\x98\x80 \xe2\x82\xac");
  let error s = match J.parse s with Error e -> Some e | Ok _ -> None in
  List.iter
    (fun s ->
       Alcotest.(check bool) (s ^ ": unpaired surrogate") true
         (match error s with Some (J.Unpaired_surrogate _) -> true | _ -> false))
    [ {|"\ud800"|}; {|"\udc00"|}; {|"\ud800\u0041"|}; {|"\ud800x"|}; {|"\ude00\ud83d"|} ];
  List.iter
    (fun (s, pos) ->
       Alcotest.(check bool) (String.escaped s ^ ": invalid UTF-8") true
         (error s = Some (J.Invalid_utf8 { pos })))
    [ ("\"\xff\"", 1); ("\"ab\xc0\xaf\"", 3); ("\"\xed\xa0\x80\"", 1);
      ("\"\xe2\x82\"", 1) ];
  Alcotest.(check string) "invalid bytes print as U+FFFD" "\"a\xef\xbf\xbdb\xef\xbf\xbd\""
    (J.to_string (J.Str "a\xffb\xe2\x82"));
  Alcotest.(check string) "control characters" {|"\t\n\r\u0001\"\\"|}
    (J.to_string (J.Str "\t\n\r\001\"\\"));
  Alcotest.(check string) "fixed decimals" "[0.500000, 71.9, null, 2.0, null]"
    (J.to_string
       (J.List
          [ J.Fixed (6, 0.5); J.Fixed (1, 71.94); J.Fixed (1, nan); J.Float 2.;
            J.Float infinity ]));
  let v =
    J.Obj
      [ ("a", J.Int 1);
        ("b",
         J.List [ J.Int 2; J.Obj [ ("c", J.List []); ("d", J.Obj [ ("e", J.Null) ]) ] ]);
        ("f", J.Obj []) ]
  in
  Alcotest.(check string) "compact" {|{"a":1,"b":[2,{"c":[],"d":{"e":null}}],"f":{}}|}
    (J.to_string ~layout:J.Compact v);
  Alcotest.(check string) "spaced"
    {|{"a": 1, "b": [2, {"c": [], "d": {"e": null}}], "f": {}}|}
    (J.to_string ~layout:J.Spaced v);
  Alcotest.(check string) "indented"
    "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    {\"c\": [], \"d\": {\"e\": null}}\n  ],\n\
    \  \"f\": {}\n}"
    (J.to_string ~layout:J.Indented v);
  Alcotest.(check string) "empty indented" "[]"
    (J.to_string ~layout:J.Indented (J.List []))

(* Arbitrary bytes, with valid multi-byte characters mixed in. *)
let bytes_gen =
  let open QCheck.Gen in
  let utf_8 u =
    let b = Buffer.create 4 in
    Buffer.add_utf_8_uchar b u;
    Buffer.contents b
  in
  let piece =
    oneof
      [ map (String.make 1) char;
        map (String.make 1) printable;
        map (fun n -> utf_8 (Uchar.of_int n))
          (oneof [ int_range 0x80 0xD7FF; int_range 0xE000 0x10FFFF ]) ]
  in
  map (String.concat "") (list_size (int_range 0 6) piece)

(* What the printer makes of a string: each maximal invalid
   subsequence becomes U+FFFD. *)
let sanitize s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      Buffer.add_utf_8_uchar b (Uchar.utf_decode_uchar d);
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.contents b

let rec map_strings f = function
  | J.Str s -> J.Str (f s)
  | J.List xs -> J.List (List.map (map_strings f) xs)
  | J.Obj fields -> J.Obj (List.map (fun (k, v) -> (f k, map_strings f v)) fields)
  | v -> v

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) small_signed_int;
        map (fun s -> J.Str s) bytes_gen ]
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
               (list_size (int_range 0 4) (pair bytes_gen (self (n / 2))))) ])

let layout_gen = QCheck.Gen.oneofl [ J.Compact; J.Spaced; J.Indented ]

(* Every layout prints valid UTF-8 that parses back to the value with
   each invalid byte sequence replaced by U+FFFD — so a valid-UTF-8
   value comes back whole — and reprinting gives the same bytes. *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: print/parse round trip" ~count:500
    (QCheck.make
       QCheck.Gen.(pair json_gen layout_gen)
       ~print:(fun (v, layout) -> String.escaped (J.to_string ~layout v)))
    (fun (v, layout) ->
       let out = J.to_string ~layout v in
       String.is_valid_utf_8 out
       &&
       match J.parse out with
       | Ok v' -> v' = map_strings sanitize v && J.to_string ~layout v' = out
       | Error _ -> false)

(* One renderer end to end: a run report keeps every id that is valid
   UTF-8, and prints the others with U+FFFD. *)
let prop_run_report_ids =
  QCheck.Test.make ~name:"json: run report with arbitrary-byte ids" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 6) bytes_gen)
       ~print:(fun ids -> String.concat ", " (List.map String.escaped ids)))
    (fun ids ->
       let module R = Resilience.Run_report in
       let item id =
         { R.id; outcome = R.Completed { attempts = 1 }; from_checkpoint = false }
       in
       let report =
         { R.label = "ids"; seed = 0; items = List.map item ids; waited = 0;
           journal_skipped = 0 }
       in
       let out = J.to_string (R.to_json report) in
       String.is_valid_utf_8 out
       &&
       match J.parse out with
       | Ok v ->
           let parsed =
             match J.mem "items" v with
             | Some (J.List items) -> List.map (field "id" J.str) items
             | _ -> []
           in
           parsed = List.map (fun id -> Some (sanitize id)) ids
           && List.for_all2
                (fun id p -> (not (String.is_valid_utf_8 id)) || p = Some id)
                ids parsed
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
    (Result.is_error (P.parse ~line_id:"x" "[1,2]"));
  (* a present field of the wrong type is an error that names it; it
     used to read as missing, or as its default *)
  let error line =
    match P.parse ~line_id:"x" line with
    | Error e -> e
    | Ok _ -> Alcotest.failf "%s accepted" line
  in
  let deep = String.make 30_000 '[' ^ String.make 30_000 ']' in
  Alcotest.(check string) "deep array app" {|field "app" must be a string|}
    (error ({|{"kind":"analyze","app":|} ^ deep ^ "}"));
  List.iter
    (fun (line, msg) -> Alcotest.(check string) line msg (error line))
    [ ({|{"kind":"boom","times":0.5}|}, {|field "times" must be an integer|});
      ({|{"kind":"boom","mode":1}|}, {|field "mode" must be a string|});
      ({|{"kind":"lint","target":null}|}, {|field "target" must be a string|});
      ({|{"kind":"lint","target":"corpus","fuel":"9"}|},
       {|field "fuel" must be an integer|});
      ({|{"kind":"stats","full":"yes"}|}, {|field "full" must be a boolean|});
      ({|{"kind":"flush","id":7}|}, {|field "id" must be a string|});
      ({|{"kind":["stats"]}|}, {|field "kind" must be a string|}) ];
  Alcotest.(check bool) "-.5 is not a JSON number" true
    (String.starts_with ~prefix:"bad JSON"
       (error {|{"kind":"boom","times":-.5}|}))

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
  | Ok v -> Option.value ~default:"?" (field "status" J.str v)
  | Error e ->
      Alcotest.failf "response is not JSON: %s (%s)" line (J.error_to_string e)

let id_of line =
  match J.parse line with
  | Ok v -> Option.value ~default:"?" (field "id" J.str v)
  | Error _ -> "?"

(* The paper's hidden IMPL_ACPT edge at dfsm's own boundary: ids the
   codec used to accept and echo wrongly.  Raw invalid bytes and a
   lone surrogate are typed errors; escaped characters above U+007F
   echo as the characters they encode, so a response joins to its
   request; every line, the summary included, is valid UTF-8. *)
let test_codec_seeds () =
  let lines, _ =
    run_with
      [ "{\"id\":\"\xff\xfe\",\"kind\":\"analyze\",\"app\":\"rwall\"}";
        {|{"id":"d\ud800","kind":"analyze","app":"rwall"}|};
        {|{"id":"e\u00e9","kind":"analyze","app":"rwall"}|};
        {|{"id":"\ud83d\ude00","kind":"analyze","app":"rwall"}|};
        {|{"kind":"shutdown"}|} ]
  in
  List.iter
    (fun l ->
       Alcotest.(check bool) ("valid UTF-8: " ^ String.escaped l) true
         (String.is_valid_utf_8 l))
    lines;
  let status id = List.assoc_opt id (List.map (fun l -> (id_of l, status_of l)) lines) in
  Alcotest.(check (option string)) "raw \\xff\\xfe id" (Some "error") (status "line:1");
  Alcotest.(check (option string)) "unpaired surrogate" (Some "error") (status "line:2");
  Alcotest.(check (option string)) "e\\u00e9 echoes as e\xc3\xa9" (Some "ok")
    (status "e\xc3\xa9");
  Alcotest.(check (option string)) "surrogate pair echoes as U+1F600" (Some "ok")
    (status "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "echoed raw, not escaped" true
    (List.exists (String.starts_with ~prefix:"{\"id\": \"e\xc3\xa9\", ") lines)

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
  Alcotest.(check string) "summary JSON identical"
    (J.to_string (S.summary_to_json s1))
    (let _, s4 = run 4 in
     J.to_string (S.summary_to_json s4))

let test_latency_percentiles () =
  let ones xs = List.map (fun x -> (x, 1)) xs in
  Alcotest.(check int) "empty" 0 (S.percentile 99 []);
  Alcotest.(check int) "p50 of 1..10" 5 (S.percentile 50 (ones (List.init 10 succ)));
  Alcotest.(check int) "p99 of 1..10" 10 (S.percentile 99 (ones (List.init 10 succ)));
  Alcotest.(check int) "p1 is the minimum" 1 (S.percentile 1 (ones [ 1; 2; 3 ]))

(* The reference: nearest rank over the sorted list of every sample. *)
let nearest_rank p xs =
  match List.sort compare xs with
  | [] -> 0
  | sorted ->
      let n = List.length sorted in
      let rank = max 1 (((p * n) + 99) / 100) in
      List.nth sorted (min (n - 1) (rank - 1))

let prop_percentile_table =
  QCheck.Test.make ~name:"percentile over a count table = nearest rank" ~count:500
    QCheck.(pair (int_range 0 100) (small_list (pair (int_range 1 50) (int_range 0 4))))
    (fun (p, steps) ->
       (* ascending latencies from positive gaps; a count may be 0 *)
       let _, rev_table =
         List.fold_left
           (fun (latency, acc) (gap, count) ->
              (latency + gap, (latency + gap, count) :: acc))
           (0, []) steps
       in
       let table = List.rev rev_table in
       let samples = List.concat_map (fun (l, c) -> List.init c (fun _ -> l)) table in
       S.percentile p table = nearest_rank p samples)

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

(* The 22 work items the server memoizes: every corpus variant and the
   whole corpus, and each application for analyze and exploit. *)
let memo_items =
  List.map (fun (target, _) -> P.Lint { target }) Minic.Corpus.all
  @ [ P.Lint { target = "corpus" } ]
  @ List.concat_map
      (fun (a : Exploit.Table.app) -> [ P.Analyze { app = a.name }; P.Exploit { app = a.name } ])
      Exploit.Table.apps

let work_fields = function
  | P.Lint { target } -> Printf.sprintf {|"kind":"lint","target":"%s"|} target
  | P.Analyze { app } -> Printf.sprintf {|"kind":"analyze","app":"%s"|} app
  | P.Exploit { app } -> Printf.sprintf {|"kind":"exploit","app":"%s"|} app
  | _ -> invalid_arg "work_fields"

(* Three rounds of every memoized item, each sent with no fuel and
   with fuel 1, 3 and 64, so one item repeats within a batch and
   across batches, as a hit that completes and as one that runs out
   of fuel.  Every flush batch also holds an unknown application and
   a [boom fault] that succeeds at its second attempt. *)
let memo_script =
  let requests =
    List.concat_map
      (fun round ->
         List.concat_map
           (fun work ->
              List.map
                (fun fuel -> (round, work, fuel))
                [ None; Some 1; Some 3; Some 64 ])
           memo_items)
      [ 1; 2; 3 ]
  in
  let line i (round, work, fuel) =
    Printf.sprintf {|{"id":"r%d-%d",%s%s}|} round i (work_fields work)
      (match fuel with None -> "" | Some f -> Printf.sprintf {|,"fuel":%d|} f)
  in
  List.concat
    (List.mapi
       (fun i r ->
          line i r
          :: (if i mod 14 = 13 then
                [ Printf.sprintf {|{"id":"u%d","kind":"analyze","app":"nosuch"}|} i;
                  Printf.sprintf {|{"id":"f%d","kind":"boom","mode":"fault","times":1}|} i;
                  {|{"kind":"flush"}|} ]
              else []))
       requests)
  @ [ {|{"id":"s1","kind":"stats"}|}; {|{"kind":"shutdown"}|} ]

(* A repeated request is answered from the memo, and no client can
   tell: the stream equals the one computed under an installed no-op
   injector, the path with neither memo nor speculation, at -j 1 and
   -j 2, and every request of an item after its first is a hit. *)
let test_memo_differential () =
  let hits = Obs.Metrics.counter "serve.memo.hits" in
  let run ~memo j =
    let before = Obs.Metrics.counter_value hits in
    let lines, s =
      with_jobs j (fun () ->
          if memo then run_with memo_script
          else
            Fault.Hooks.with_injector (Fault.Injector.create Fault.Plan.none)
              (fun () -> run_with memo_script))
    in
    Alcotest.(check bool) "accounted" true (S.accounted s);
    Alcotest.(check int) "nothing shed" 0 s.S.shed;
    (lines, Obs.Metrics.counter_value hits - before)
  in
  let reference, no_hits = run ~memo:false 1 in
  Alcotest.(check int) "no hit under an injector" 0 no_hits;
  let repeats = (3 * 4 * List.length memo_items) - List.length memo_items in
  List.iter
    (fun (memo, j) ->
       let lines, n = run ~memo j in
       Alcotest.(check (list string))
         (Printf.sprintf "memo %b at -j %d = no memo at -j 1" memo j)
         reference lines;
       Alcotest.(check int) "hits" (if memo then repeats else 0) n)
    [ (false, 2); (true, 1); (true, 2) ];
  let count status = List.length (List.filter (fun l -> status_of l = status) reference) in
  Alcotest.(check bool) "hits that complete and hits that run out of fuel" true
    (count "ok" > List.length memo_items && count "deadline" > 0)

(* The handler [chaos] runs its plan's injector around the simulation
   legs; a disk plan there would perturb the server's own store writes.
   It is a typed error, and the store stays clean. *)
let test_chaos_disk_plan () =
  let dir = Filename.temp_file "dfsm-serve" ".d" in
  Sys.remove dir;
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.Disk.open_ ~dir in
  let lines, _ =
    Store.Handle.with_store (Some store) (fun () ->
        run_with
          (List.map
             (fun (plan : Fault.Plan.t) ->
                Printf.sprintf {|{"id":"%s","kind":"chaos","plan":"%s"}|} plan.name plan.name)
             Fault.Catalog.disk
           @ [ {|{"kind":"shutdown"}|} ]))
  in
  List.iter
    (fun (plan : Fault.Plan.t) ->
       match List.find_opt (fun l -> id_of l = plan.name) lines with
       | Some l -> Alcotest.(check string) (plan.name ^ " is refused") "error" (status_of l)
       | None -> Alcotest.failf "no response for %s" plan.name)
    Fault.Catalog.disk;
  let report = Store.Fsck.scan store in
  Alcotest.(check int) "no torn record" 0 report.Store.Fsck.torn;
  Alcotest.(check bool) "fsck: clean" true (Store.Fsck.clean report)

(* ---- handlers ----------------------------------------------------- *)

(* An exploit request spends one unit of fuel before each row, so an
   attempt that runs out stops at the first refused spend instead of
   running every simulation and then answering deadline. *)
let test_exploit_fuel () =
  let attempt fuel =
    Obs.Allocs.bytes_of (fun () ->
        Serve.Handlers.run ~attempt:1 ~fuel (P.Exploit { app = "nullhttpd" }))
  in
  let (full, full_spent), full_bytes = attempt 64 in
  let (starved, spent), starved_bytes = attempt 2 in
  (match full with
   | Serve.Handlers.Done _ -> Alcotest.(check int) "fuel 64 spends 1 + 7" 8 full_spent
   | Serve.Handlers.Deadline_hit _ -> Alcotest.fail "fuel 64 hit its deadline");
  (match starved with
   | Serve.Handlers.Deadline_hit { spent = 2 } -> Alcotest.(check int) "spent" 2 spent
   | _ -> Alcotest.fail "fuel 2: expected a deadline after 2 units");
  Alcotest.(check bool)
    (Printf.sprintf "fuel 2 allocates %.0f bytes, under half of fuel 64's %.0f"
       starved_bytes full_bytes)
    true
    (starved_bytes < full_bytes /. 2.)

(* What the memo rests on: a memoized handler's outcome and spend do
   not depend on the attempt, and [replay] of its first [Done] gives
   what [run] gives at every fuel. *)
let test_memo_contract () =
  List.iter
    (fun work ->
       let name = work_fields work in
       let outcome, units = Serve.Handlers.run ~attempt:1 ~fuel:64 work in
       Alcotest.(check bool) (name ^ ": attempt 3 = attempt 1") true
         (Serve.Handlers.run ~attempt:3 ~fuel:64 work = (outcome, units));
       match outcome with
       | Serve.Handlers.Deadline_hit _ -> Alcotest.failf "%s: fuel 64 hit its deadline" name
       | Serve.Handlers.Done payload ->
           for fuel = -1 to units + 1 do
             Alcotest.(check bool) (Printf.sprintf "%s: replay at fuel %d" name fuel) true
               (Serve.Handlers.replay ~fuel ~units payload
                = Serve.Handlers.run ~attempt:1 ~fuel work)
           done)
    memo_items

(* ---- flat memory over a long run --------------------------------- *)

let soak_apps =
  Array.of_list (List.map (fun (a : Exploit.Table.app) -> a.name) Exploit.Table.apps)
let soak_targets = Array.of_list (List.map fst Minic.Corpus.all)

(* Request [i] of the soak mix: the first of every eight is [first],
   the rest analyze, lint and exploit across the registry and the
   corpus. *)
let soak_request ~first i =
  let pick a = a.((i + (i / 8)) mod Array.length a) in
  let body =
    match i mod 8 with
    | 0 -> first
    | 1 | 4 | 7 -> Printf.sprintf {|"kind":"analyze","app":"%s"|} (pick soak_apps)
    | 2 | 5 -> Printf.sprintf {|"kind":"lint","target":"%s"|} (pick soak_targets)
    | _ -> Printf.sprintf {|"kind":"exploit","app":"%s"|} (pick soak_apps)
  in
  Printf.sprintf {|{"id":"w%d",%s}|} i body

(* 20,000 requests in batches of 8, each followed by a flush, through
   a server whose emit keeps nothing: the live heap after request
   20,000 must be within 1% of the live heap after request 2,000.
   Returns the summary. *)
let soak_flat_memory ~first =
  let total = 20_000 and probe = 2_000 in
  let sent = ref 0 and flush_next = ref false and readings = ref [] in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let source () =
    if !flush_next then begin
      flush_next := false;
      Some {|{"kind":"flush"}|}
    end
    else begin
      if !sent = probe || !sent = total then readings := live_words () :: !readings;
      if !sent = total then None
      else begin
        let line = soak_request ~first !sent in
        incr sent;
        flush_next := !sent mod 8 = 0;
        Some line
      end
    end
  in
  let s = with_jobs 1 (fun () -> S.run ~emit:ignore source) in
  Alcotest.(check bool) "accounted" true (S.accounted s);
  Alcotest.(check int) "admitted" total s.S.admitted;
  (match !readings with
   | [ after; before ] ->
       if abs (after - before) * 100 > before then
         Alcotest.failf "live words grew from %d after %d requests to %d after %d"
           before probe after total
   | _ -> Alcotest.fail "expected two live-heap readings");
  s

let test_soak_flat_memory () =
  let s = soak_flat_memory ~first:{|"kind":"analyze","app":"nosuch"|} in
  Alcotest.(check int) "one unknown app in eight" (20_000 / 8) s.S.errors

(* A class that crashes on every request keeps its breaker tripping
   for the whole run. *)
let test_soak_flat_memory_tripping () =
  let s = soak_flat_memory ~first:{|"kind":"boom","mode":"crash"|} in
  Alcotest.(check int) "one crash in eight" (20_000 / 8) s.S.quarantined

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
         Alcotest.test_case "numbers, UTF-8 and layouts" `Quick test_json_codec;
         QCheck_alcotest.to_alcotest prop_json_roundtrip;
         QCheck_alcotest.to_alcotest prop_run_report_ids ]);
      ("protocol",
       [ Alcotest.test_case "request parsing" `Quick test_protocol_parse ]);
      ("admission",
       [ Alcotest.test_case "bounded queue" `Quick test_admission_bound ]);
      ("server",
       [ Alcotest.test_case "codec regression seeds" `Quick test_codec_seeds;
         Alcotest.test_case "typed statuses" `Quick test_statuses;
         Alcotest.test_case "overload shedding" `Quick test_overload_shedding;
         Alcotest.test_case "breaker class isolation" `Quick
           test_breaker_isolation;
         Alcotest.test_case "graceful drain" `Quick test_drain_semantics;
         Alcotest.test_case "byte-identical at every -j" `Quick
           test_job_count_identity;
         Alcotest.test_case "percentiles" `Quick test_latency_percentiles;
         QCheck_alcotest.to_alcotest prop_percentile_table;
         Alcotest.test_case "backoffs count as retry attempts" `Quick
           test_retry_attempts_metric;
         Alcotest.test_case "memo: same stream as the injector path" `Quick
           test_memo_differential;
         Alcotest.test_case "chaos refuses a disk plan" `Quick test_chaos_disk_plan ]);
      ("handlers",
       [ Alcotest.test_case "exploit spends fuel before each row" `Quick
           test_exploit_fuel;
         Alcotest.test_case "memoized handlers replay" `Quick test_memo_contract ]);
      ("soak",
       [ Alcotest.test_case "smoke contract" `Quick test_soak_smoke;
         Alcotest.test_case "flat memory over 20k requests" `Quick
           test_soak_flat_memory;
         Alcotest.test_case "flat memory with a tripping breaker" `Quick
           test_soak_flat_memory_tripping;
         Alcotest.test_case "stable" `Quick test_soak_stable ]) ]
