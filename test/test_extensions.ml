(* Tests for the extension modules: the predicate check library,
   finite-domain verification, model metrics, database queries/trends/
   CSV, heap realloc & validation, ASLR, and the Table-1 generic
   pattern. *)

module P = Pfsm.Predicate
module V = Pfsm.Value
module E = Pfsm.Env
module C = Pfsm.Checks
module Vf = Pfsm.Verify

let holds ?(env = E.empty) ~self p = P.holds ~env ~self p

(* ---- checks ------------------------------------------------------ *)

let test_checks_registry () =
  Alcotest.(check int) "eleven checks" 11 (List.length C.names);
  List.iter
    (fun name ->
       Alcotest.(check bool) name true (C.kind_of name <> None))
    C.names;
  Alcotest.(check bool) "unknown" true (C.kind_of "bogus" = None)

let test_checks_predicates_behave () =
  Alcotest.(check bool) "representable yes" true
    (holds ~self:(V.Str "42") C.representable_int32);
  Alcotest.(check bool) "representable no" false
    (holds ~self:(V.Str "4294966272") C.representable_int32);
  Alcotest.(check bool) "length_within" false
    (holds ~self:(V.Str (String.make 201 'x')) (C.length_within 200));
  Alcotest.(check bool) "non_negative" false (holds ~self:(V.Int (-1)) C.non_negative);
  Alcotest.(check bool) "traversal_free catches double decode" false
    (holds ~self:(V.Str "..%252fx") (C.traversal_free ~decodes:2));
  Alcotest.(check bool) "format_free" false (holds ~self:(V.Str "%n") C.format_free);
  let env = E.add_str "k" "terminal" E.empty in
  Alcotest.(check bool) "is_terminal" true
    (P.holds ~env ~self:V.Unit (C.is_terminal ~kind_key:"k"));
  let env = E.add_bool "priv" true E.empty in
  Alcotest.(check bool) "has_privilege" true
    (P.holds ~env ~self:V.Unit (C.has_privilege ~flag:"priv"));
  Alcotest.(check bool) "address_equals" true
    (holds ~self:(V.Addr 5) (C.address_equals (V.Addr 5)))

let test_checks_pfsm_builder () =
  let pfsm =
    C.pfsm ~name:"p" ~check:"index_in_bounds" ~activity:"a"
      (C.index_in_bounds ~low:0 ~high:9)
  in
  Alcotest.(check bool) "kind derived" true
    (Pfsm.Taxonomy.equal pfsm.Pfsm.Primitive.kind
       Pfsm.Taxonomy.Content_attribute_check);
  Alcotest.(check bool) "default impl is no check" true
    (Pfsm.Primitive.missing_check pfsm);
  match C.pfsm ~name:"p" ~check:"nope" ~activity:"a" P.True with
  | _ -> Alcotest.fail "unknown check accepted"
  | exception Invalid_argument _ -> ()

(* ---- verify ------------------------------------------------------ *)

let bounded_pfsm =
  Pfsm.Primitive.make ~name:"p" ~kind:Pfsm.Taxonomy.Content_attribute_check
    ~activity:"a"
    ~spec:(P.between P.Self ~low:0 ~high:100)
    ~impl:(P.Cmp (P.Le, P.Self, P.Lit (V.Int 100)))

let test_verify_refutes () =
  match Vf.verify bounded_pfsm (Vf.Int_range { low = -10; high = 10 }) with
  | Vf.Refuted { witness = V.Int w; _ } ->
      Alcotest.(check bool) "negative witness" true (w < 0)
  | other -> Alcotest.fail (Format.asprintf "%a" Vf.pp_result other)

let test_verify_verifies_secured () =
  Alcotest.(check bool) "secured verifies" true
    (Vf.verify_secured bounded_pfsm (Vf.Int_range { low = -2048; high = 2048 }));
  match Vf.verify (Pfsm.Primitive.secured bounded_pfsm)
          (Vf.Int_range { low = -100; high = 200 })
  with
  | Vf.Verified { candidates = 301 } -> ()
  | other -> Alcotest.fail (Format.asprintf "%a" Vf.pp_result other)

let test_verify_domain_sizes () =
  Alcotest.(check int) "range" 21 (Vf.size (Vf.Int_range { low = -10; high = 10 }));
  Alcotest.(check int) "empty range" 0 (Vf.size (Vf.Int_range { low = 5; high = 4 }));
  Alcotest.(check int) "strings" 3 (Vf.size (Vf.Strings [ "a"; "b"; "c" ]));
  (* 1 + 2 + 4 + 8 strings over a 2-letter alphabet up to length 3 *)
  Alcotest.(check int) "alphabet" 15
    (Vf.size (Vf.Alphabet_strings { alphabet = "ab"; max_len = 3 }));
  Alcotest.(check int) "enumerate matches size" 15
    (List.length (Vf.enumerate (Vf.Alphabet_strings { alphabet = "ab"; max_len = 3 })))

let test_verify_too_large () =
  match Vf.verify bounded_pfsm (Vf.Int_range { low = 0; high = 1_000_000 }) with
  | Vf.Domain_too_large _ -> ()
  | other -> Alcotest.fail (Format.asprintf "%a" Vf.pp_result other)

let test_verify_alphabet_finds_witness () =
  let pfsm =
    Pfsm.Primitive.make ~name:"p" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"a"
      ~spec:(P.Not (P.Contains (P.Self, "ab")))
      ~impl:P.True
  in
  match Vf.verify pfsm (Vf.Alphabet_strings { alphabet = "ab"; max_len = 3 }) with
  | Vf.Refuted { witness = V.Str w; _ } ->
      Alcotest.(check bool) "contains ab" true
        (String.length w >= 2)
  | other -> Alcotest.fail (Format.asprintf "%a" Vf.pp_result other)

let prop_verify_agrees_with_witness_search =
  let open QCheck in
  Test.make ~name:"verify: refutation agrees with witness search on the same domain"
    ~count:100
    (pair (int_range (-50) 150) (int_range (-50) 150))
    (fun (bound, low) ->
       let pfsm =
         Pfsm.Primitive.make ~name:"q" ~kind:Pfsm.Taxonomy.Content_attribute_check
           ~activity:"a"
           ~spec:(P.between P.Self ~low:0 ~high:100)
           ~impl:(P.Cmp (P.Le, P.Self, P.Lit (V.Int bound)))
       in
       let domain = Vf.Int_range { low; high = low + 60 } in
       let exhaustive =
         match Vf.verify pfsm domain with
         | Vf.Refuted _ -> true
         | Vf.Verified _ -> false
         | Vf.Budget_exhausted _ | Vf.Domain_too_large _ -> false
       in
       let sampled =
         Pfsm.Witness.hidden_witnesses pfsm
           ~candidates:(List.map (fun v -> Pfsm.Witness.candidate v) (Vf.enumerate domain))
         <> []
       in
       exhaustive = sampled)

(* ---- metrics ----------------------------------------------------- *)

let test_metrics_sendmail () =
  let m = Pfsm.Metrics.of_model (Apps.Sendmail.model (Apps.Sendmail.setup ())) in
  Alcotest.(check int) "operations" 2 m.Pfsm.Metrics.operations;
  Alcotest.(check int) "activities" 3 m.Pfsm.Metrics.elementary_activities;
  Alcotest.(check int) "predicates" 3 m.Pfsm.Metrics.predicates;
  Alcotest.(check int) "missing checks" 2 m.Pfsm.Metrics.missing_checks;
  Alcotest.(check bool) "obs1" true (Pfsm.Metrics.observation1_holds m);
  Alcotest.(check bool) "obs2" true (Pfsm.Metrics.observation2_holds m);
  Alcotest.(check bool) "obs3" true (Pfsm.Metrics.observation3_holds m)

let test_metrics_nullhttpd () =
  let m = Pfsm.Metrics.of_model (Apps.Nullhttpd.model (Apps.Nullhttpd.setup ())) in
  Alcotest.(check int) "operations" 3 m.Pfsm.Metrics.operations;
  Alcotest.(check int) "objects" 3 (List.length m.Pfsm.Metrics.objects);
  Alcotest.(check int) "activities" 4 m.Pfsm.Metrics.elementary_activities

let test_metrics_kinds_sum () =
  List.iter
    (fun model ->
       let m = Pfsm.Metrics.of_model model in
       let kind_total = List.fold_left (fun acc (_, n) -> acc + n) 0 m.Pfsm.Metrics.kinds in
       Alcotest.(check int) m.Pfsm.Metrics.model_name m.Pfsm.Metrics.elementary_activities
         kind_total)
    [ Apps.Sendmail.model (Apps.Sendmail.setup ());
      Apps.Nullhttpd.model (Apps.Nullhttpd.setup ());
      Apps.Xterm.model ();
      Apps.Iis.model (Apps.Iis.setup ()) ]

(* the dist column of `dfsm metrics`: structurally distinct spec and
   impl predicates per application *)
let test_metrics_distinct_predicates () =
  Alcotest.(check (list (pair string int))) "distinct predicates"
    [ ("sendmail", 5); ("nullhttpd", 5); ("xterm", 3); ("rwall", 3); ("iis", 2);
      ("ghttpd", 3); ("rpcstatd", 3) ]
    (List.map
       (fun (app : Exploit.Table.app) ->
          (app.name, (Pfsm.Metrics.of_model (app.model ())).Pfsm.Metrics.distinct_predicates))
       Exploit.Table.apps)

(* ---- vulndb query / trend / csv ---------------------------------- *)

let db = lazy (Vulndb.Synth.generate ~seed:20021130)

let test_query_by_software () =
  let hits = Vulndb.Query.by_software (Lazy.force db) "sendmail" in
  Alcotest.(check bool) "finds #3163 case-insensitively" true
    (List.exists (fun (r : Vulndb.Report.t) -> r.Vulndb.Report.id = 3163) hits)

let test_query_by_flaw () =
  let races = Vulndb.Query.by_flaw (Lazy.force db) Vulndb.Report.File_race in
  Alcotest.(check int) "file races at quota" 100 (List.length races)

let test_query_between_dates () =
  let hits = Vulndb.Query.between (Lazy.force db) ~since:"2001-01-01" ~until:"2001-12-31" in
  Alcotest.(check bool) "nonempty" true (hits <> []);
  List.iter
    (fun (r : Vulndb.Report.t) ->
       Alcotest.(check bool) r.Vulndb.Report.date true
         (Vulndb.Query.year_of r = 2001))
    hits

let test_query_text_search () =
  let hits = Vulndb.Query.text_search (Lazy.force db) "ReadPOSTData" in
  Alcotest.(check bool) "finds #6255" true
    (List.exists (fun (r : Vulndb.Report.t) -> r.Vulndb.Report.id = 6255) hits)

let test_query_remote_share () =
  let share = Vulndb.Query.remote_share (Lazy.force db) in
  Alcotest.(check bool) "plausible" true (share > 50.0 && share < 95.0)

let test_trend_per_year_sums () =
  let db = Lazy.force db in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Vulndb.Trend.per_year db) in
  Alcotest.(check int) "sums to database size" (Vulndb.Database.size db) total;
  let family_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Vulndb.Trend.family_per_year db)
  in
  Alcotest.(check int) "family sums" (Vulndb.Stats.family_count db) family_total

let test_trend_years_sorted () =
  let years = List.map fst (Vulndb.Trend.per_year (Lazy.force db)) in
  Alcotest.(check (list int)) "ascending" (List.sort compare years) years

let test_csv_escaping () =
  Alcotest.(check string) "plain untouched" "abc" (Vulndb.Csv.escape "abc");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Vulndb.Csv.escape "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Vulndb.Csv.escape "a\"b")

let test_csv_export_shape () =
  let csv = Vulndb.Csv.of_database (Vulndb.Seed_data.database ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + reports"
    (1 + List.length Vulndb.Seed_data.reports)
    (List.length lines);
  Alcotest.(check string) "header" Vulndb.Csv.header (List.hd lines)

let test_csv_parse_round_trip_seed () =
  let db = Vulndb.Seed_data.database () in
  match Vulndb.Csv.parse (Vulndb.Csv.of_database db) with
  | Ok reports ->
      Alcotest.(check bool) "seed database survives the round trip" true
        (reports = Vulndb.Database.reports db)
  | Error e -> Alcotest.failf "parse failed at line %d: %s" e.line e.message

let test_csv_parse_quoted_fields () =
  let nasty =
    Vulndb.Report.make ~id:1 ~title:"a,b \"and\" c\nd" ~date:"2002-11-30"
      ~category:Vulndb.Category.Boundary_condition_error ~software:"x, y"
      ~elementary_activity:"copy \"input\",\nthen free" ~description:"line1\nline2"
      ()
  in
  let doc = Vulndb.Csv.header ^ "\n" ^ Vulndb.Csv.of_report nasty ^ "\n" in
  (match Vulndb.Csv.parse doc with
   | Ok [ r ] ->
       Alcotest.(check bool) "embedded commas/quotes/newlines survive" true
         (r = nasty)
   | Ok rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)
   | Error e -> Alcotest.failf "parse failed at line %d: %s" e.line e.message);
  (* CRLF row endings parse to the same reports *)
  let plain =
    Vulndb.Report.make ~id:2 ~title:"a,b" ~date:"2002-11-30"
      ~category:Vulndb.Category.Race_condition_error ~software:"s"
      ~description:"d" ()
  in
  let crlf = Vulndb.Csv.header ^ "\r\n" ^ Vulndb.Csv.of_report plain ^ "\r\n" in
  match Vulndb.Csv.parse crlf with
  | Ok [ r ] -> Alcotest.(check bool) "CRLF accepted" true (r = plain)
  | Ok _ | Error _ -> Alcotest.fail "CRLF document rejected"

let test_csv_parse_errors () =
  (match Vulndb.Csv.parse "nonsense\n1,2,3\n" with
   | Error { line = 1; _ } -> ()
   | Error e -> Alcotest.failf "wrong line %d" e.line
   | Ok _ -> Alcotest.fail "bad header accepted");
  (match Vulndb.Csv.parse (Vulndb.Csv.header ^ "\n1,2,3\n") with
   | Error { line = 2; _ } -> ()
   | Error e -> Alcotest.failf "wrong line %d" e.line
   | Ok _ -> Alcotest.fail "short row accepted");
  (match
     Vulndb.Csv.parse
       (Vulndb.Csv.header
        ^ "\n7,t,2002-01-01,Not A Category,s,remote,other,false,,d\n")
   with
   | Error { line = 2; _ } -> ()
   | Error e -> Alcotest.failf "wrong line %d" e.line
   | Ok _ -> Alcotest.fail "unknown category accepted");
  match Vulndb.Csv.parse (Vulndb.Csv.header ^ "\n7,\"unterminated\n") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated quote accepted"

(* The typed-error contract: every malformed input names the line,
   the column and (for bad fields) the offending field itself. *)
let test_csv_malformed_locations () =
  (match Vulndb.Csv.parse_rows "a,\"unterm" with
   | Error { line = 1; column = 3; field = None; message } ->
       Alcotest.(check bool) "names the quote" true
         (String.length message > 0)
   | Error e ->
       Alcotest.failf "unterminated quote at %d:%d, wanted 1:3" e.line e.column
   | Ok _ -> Alcotest.fail "unterminated quote accepted");
  (match Vulndb.Csv.parse_rows "ab\rcd\n" with
   | Error { line = 1; column = 3; _ } -> ()
   | Error e -> Alcotest.failf "bare CR at %d:%d, wanted 1:3" e.line e.column
   | Ok _ -> Alcotest.fail "bare CR outside quotes accepted");
  (match Vulndb.Csv.parse_rows "\"a\rb\"\n" with
   | Ok [ { fields = [ (1, "a\rb") ]; _ } ] -> ()
   | _ -> Alcotest.fail "quoted CR should be data");
  (match Vulndb.Csv.parse_rows "\"ok\"garbage\n" with
   | Error { line = 1; column = 5; _ } -> ()
   | Error e -> Alcotest.failf "garbage after quote at %d:%d" e.line e.column
   | Ok _ -> Alcotest.fail "garbage after closing quote accepted");
  (* ragged row: counted against the row's starting line *)
  (match Vulndb.Csv.parse (Vulndb.Csv.header ^ "\n1,2,3\n") with
   | Error { line = 2; column = 1; field = None; message } ->
       Alcotest.(check bool) "says ragged" true
         (String.length message > 0 && String.sub message 0 6 = "ragged")
   | Error e -> Alcotest.failf "ragged row at %d:%d" e.line e.column
   | Ok _ -> Alcotest.fail "ragged row accepted");
  (* a bad field carries the field and its exact starting column:
     "7,t,2002-01-01," is 15 chars, so category starts at column 16 *)
  match
    Vulndb.Csv.parse
      (Vulndb.Csv.header ^ "\n7,t,2002-01-01,Not A Category,s,remote,other,false,,d\n")
  with
  | Error { line = 2; column = 16; field = Some "Not A Category"; _ } -> ()
  | Error e ->
      Alcotest.failf "bad category at %d:%d field %s" e.line e.column
        (Option.value e.field ~default:"<none>")
  | Ok _ -> Alcotest.fail "unknown category accepted"

let prop_csv_round_trip =
  let open QCheck in
  let field_gen =
    (* strings biased towards the characters that exercise quoting *)
    string_gen_of_size (Gen.int_range 0 12)
      (Gen.oneof
         [ Gen.char_range 'a' 'z';
           Gen.oneofl [ ','; '"'; '\n'; ' '; '%'; '0' ] ])
  in
  Test.make ~name:"csv: parse (of_database db) = reports db" ~count:100
    (pair (list_of_size (Gen.int_range 0 8) (triple field_gen field_gen field_gen))
       small_nat)
    (fun (rows, seed) ->
       let category i =
         List.nth Vulndb.Category.all (i mod List.length Vulndb.Category.all)
       in
       let reports =
         List.mapi
           (fun i (title, software, description) ->
              Vulndb.Report.make ~id:(i + 1) ~title ~date:"2002-11-30"
                ~category:(category (seed + i)) ~software
                ?elementary_activity:
                  (if i mod 2 = 0 || description = "" then None
                   else Some description)
                ~description ~synthetic:(i mod 3 = 0) ())
           rows
       in
       let db = Vulndb.Database.of_reports reports in
       Vulndb.Csv.parse (Vulndb.Csv.of_database db)
       = Ok (Vulndb.Database.reports db))

(* ---- heap realloc & validate ------------------------------------- *)

let heap () =
  let mem = Machine.Memory.create ~base:0x1000 ~size:0x10000 in
  (mem, Machine.Heap.create mem ~base:0x1100 ~size:0x8000 ~safe_unlink:false)

let test_heap_realloc_preserves_prefix () =
  let mem, h = heap () in
  let a = match Machine.Heap.malloc h 32 with Some a -> a | None -> assert false in
  Machine.Memory.write_string mem a "payload-data";
  (match Machine.Heap.realloc h a 256 with
   | Some b ->
       Alcotest.(check string) "prefix copied" "payload-data"
         (String.sub (Machine.Memory.read_bytes mem b 12) 0 12);
       Alcotest.(check bool) "grew" true (Machine.Heap.usable_size h ~user:b >= 256)
   | None -> Alcotest.fail "realloc failed")

let test_heap_validate_clean () =
  let _, h = heap () in
  let users =
    List.filter_map (fun i -> Machine.Heap.malloc h (24 + (8 * i))) (List.init 10 Fun.id)
  in
  List.iteri (fun i u -> if i mod 3 = 0 then Machine.Heap.free h u) users;
  Alcotest.(check int) "no issues" 0 (List.length (Machine.Heap.validate h))

let test_heap_validate_detects_smashed_size () =
  let mem, h = heap () in
  let a = match Machine.Heap.malloc h 64 with Some a -> a | None -> assert false in
  let _b = Machine.Heap.malloc h 64 in
  (* Smash a's size field to a nonsense value. *)
  Machine.Memory.write_i32 mem (Machine.Heap.chunk_of_user a + 4) 0x3;
  Alcotest.(check bool) "issue reported" true (Machine.Heap.validate h <> [])

let test_heap_validate_after_unlink_attack () =
  let mem, h = heap () in
  let big = match Machine.Heap.malloc h 2048 with Some a -> a | None -> assert false in
  Machine.Heap.free h big;
  let victim = match Machine.Heap.malloc h 128 with Some a -> a | None -> assert false in
  let b_chunk = victim + Machine.Heap.usable_size h ~user:victim in
  Machine.Memory.write_i32 mem (Machine.Heap.fd_addr ~chunk:b_chunk) (0x1000 + 0x20 - 12);
  Machine.Memory.write_i32 mem (Machine.Heap.bk_addr ~chunk:b_chunk) (0x1000 + 0x40);
  Machine.Heap.free h victim;
  Alcotest.(check bool) "attack leaves detectable damage" true
    (Machine.Heap.validate h <> [])

(* ---- ASLR & ablation --------------------------------------------- *)

let test_aslr_slides_regions () =
  let seed = Exploit.Ablation.aslr_seed in
  List.iter
    (fun region ->
       let s = Machine.Process.aslr_slide ~seed ~region in
       Alcotest.(check bool) "nonzero" true (s <> 0);
       Alcotest.(check int) "16-aligned" 0 (s land 0xf);
       Alcotest.(check bool) "bounded by a page" true (s <= 0xff0))
    [ 1; 2; 3 ]

let test_aslr_moves_layout () =
  let plain = Apps.Ghttpd.setup () in
  let slid = Apps.Ghttpd.setup ~aslr_seed:Exploit.Ablation.aslr_seed () in
  Alcotest.(check bool) "buffer moved" true
    (Apps.Ghttpd.expected_buf_addr plain <> Apps.Ghttpd.expected_buf_addr slid)

let test_aslr_got_not_slid () =
  let plain = Apps.Sendmail.setup () in
  let slid = Apps.Sendmail.setup ~aslr_seed:Exploit.Ablation.aslr_seed () in
  Alcotest.(check int) "GOT slot fixed (pre-PIE)" (Apps.Sendmail.setuid_slot plain)
    (Apps.Sendmail.setuid_slot slid)

let test_ablation_rows () =
  let rows = Exploit.Ablation.rows () in
  Alcotest.(check int) "four exploits" 4 (List.length rows);
  List.iter
    (fun r ->
       Alcotest.(check bool) (r.Exploit.Ablation.app ^ " hijacks without") true
         r.Exploit.Ablation.hijack_without;
       Alcotest.(check bool) (r.Exploit.Ablation.app ^ " no hijack with") false
         r.Exploit.Ablation.hijack_with)
    rows;
  Alcotest.(check bool) "summary" true
    (Exploit.Ablation.control_flow_hijacks_prevented ())

(* ---- Table-1 generic pattern ------------------------------------- *)

let test_pattern_ambiguity_rows () =
  let rows = Apps.Int_overflow_pattern.ambiguity_rows () in
  Alcotest.(check int) "three activities" 3 (List.length rows);
  List.iter
    (fun (activity, bugtraq, category, hidden) ->
       Alcotest.(check bool)
         (Apps.Int_overflow_pattern.activity_description activity ^ " hidden")
         true hidden;
       Alcotest.(check bool) "real bugtraq id" true (List.mem bugtraq [ 3163; 5493; 3958 ]);
       ignore category)
    rows;
  let categories =
    List.sort_uniq compare
      (List.map (fun (_, _, c, _) -> Vulndb.Category.to_string c) rows)
  in
  Alcotest.(check int) "three distinct categories" 3 (List.length categories)

let test_pattern_matches_seed_data () =
  List.iter
    (fun (activity, bugtraq, category, _) ->
       let report = Vulndb.Database.find_exn (Vulndb.Seed_data.database ()) bugtraq in
       Alcotest.(check string) "category agrees with the curated report"
         (Vulndb.Category.to_string report.Vulndb.Report.category)
         (Vulndb.Category.to_string category);
       ignore activity)
    (Apps.Int_overflow_pattern.ambiguity_rows ())

let test_pattern_benign () =
  let trace =
    Pfsm.Model.run (Apps.Int_overflow_pattern.model ())
      ~env:Apps.Int_overflow_pattern.benign_scenario
  in
  Alcotest.(check bool) "benign not exploited" false (Pfsm.Trace.exploited trace);
  Alcotest.(check bool) "completes" true trace.Pfsm.Trace.completed

let test_pattern_lemma () =
  Alcotest.(check bool) "lemma on the generic chain" true
    (Pfsm.Lemma.holds
       (Apps.Int_overflow_pattern.model ())
       ~scenarios:[ Apps.Int_overflow_pattern.exploit_scenario ])

(* ---- simplify ----------------------------------------------------- *)

let test_simplify_units () =
  let s = Pfsm.Simplify.simplify in
  let check name input expected =
    Alcotest.(check string) name (P.to_string expected) (P.to_string (s input))
  in
  check "true && p" (P.And (P.True, P.Env_flag "k")) (P.Env_flag "k");
  check "p && false" (P.And (P.Env_flag "k", P.False)) P.False;
  check "false || p" (P.Or (P.False, P.Env_flag "k")) (P.Env_flag "k");
  check "double negation" (P.Not (P.Not (P.Env_flag "k"))) (P.Env_flag "k");
  check "!true" (P.Not P.True) P.False;
  check "constant cmp" (P.Cmp (P.Lt, P.Lit (V.Int 3), P.Lit (V.Int 5))) P.True;
  check "constant contains"
    (P.Contains (P.Lit (V.Str "a/../b"), "../"))
    P.True;
  check "empty needle" (P.Contains (P.Self, "")) P.True;
  check "contains_any []" (P.Contains_any (P.Self, [])) P.False;
  check "contains_any singleton"
    (P.Contains_any (P.Self, [ "x" ]))
    (P.Contains (P.Self, "x"));
  check "fits_int32 literal" (P.Fits_int32 (P.Lit (V.Int 0x80000000))) P.False;
  check "format_free literal" (P.Is_format_free (P.Lit (V.Str "%n"))) P.False;
  check "nested fold"
    (P.And (P.Not P.False, P.Or (P.Env_flag "k", P.Not P.True)))
    (P.Env_flag "k")

let test_simplify_keeps_nontrivial () =
  let p = P.between P.Self ~low:0 ~high:100 in
  Alcotest.(check string) "untouched" (P.to_string p)
    (P.to_string (Pfsm.Simplify.simplify p))

let simplify_candidates =
  List.concat_map
    (fun v -> [ (E.empty, v); (E.add_bool "k" true E.empty, v) ])
    [ V.Int 0; V.Int (-5); V.Int 101; V.Str "../x"; V.Str "%n"; V.Str ""; V.Unit ]

let prop_simplify_refines =
  QCheck.Test.make ~name:"simplify: refines the original on a mixed domain" ~count:300
    (QCheck.make ~print:P.to_string
       QCheck.Gen.(
         let base =
           oneofl
             [ P.True; P.False; P.Env_flag "k";
               P.Cmp (P.Le, P.Self, P.Lit (V.Int 100));
               P.Contains (P.Self, "../"); P.Is_format_free P.Self;
               P.Fits_int32 (P.Lit (V.Int 7)); P.Contains_any (P.Self, []) ]
         in
         let rec build d =
           if d = 0 then base
           else
             frequency
               [ (2, base);
                 (1, map (fun p -> P.Not p) (build (d - 1)));
                 (1, map2 (fun a b -> P.And (a, b)) (build (d - 1)) (build (d - 1)));
                 (1, map2 (fun a b -> P.Or (a, b)) (build (d - 1)) (build (d - 1))) ]
         in
         build 4))
    (fun p ->
       let q = Pfsm.Simplify.simplify p in
       Pfsm.Simplify.refines_on simplify_candidates ~original:p ~simplified:q
       && Pfsm.Simplify.size q <= Pfsm.Simplify.size p)

(* ---- n-process scheduler ------------------------------------------ *)

let test_scheduler_n_counts () =
  let module S = Osmodel.Scheduler in
  Alcotest.(check int) "pairwise agrees" (S.interleaving_count 3 2)
    (S.interleaving_count_n [ 3; 2 ]);
  Alcotest.(check int) "3 singletons = 3!" 6 (S.interleaving_count_n [ 1; 1; 1 ]);
  Alcotest.(check int) "multinomial 2,1,1" 12 (S.interleaving_count_n [ 2; 1; 1 ]);
  Alcotest.(check int) "enumeration matches count"
    (S.interleaving_count_n [ 2; 2; 1 ])
    (List.length (S.interleavings_n [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]))

let test_scheduler_n_order_preserved () =
  let module S = Osmodel.Scheduler in
  let merges = S.interleavings_n [ [ `A 1; `A 2 ]; [ `B 1 ]; [ `C 1 ] ] in
  Alcotest.(check int) "12 merges" 12 (List.length merges);
  List.iter
    (fun m ->
       let asides = List.filter_map (function `A x -> Some x | _ -> None) m in
       Alcotest.(check (list int)) "A order" [ 1; 2 ] asides)
    merges

let test_scheduler_explore_n_three_party_race () =
  (* A three-process variant of the xterm window: the logger, the
     attacker, and a janitor that re-creates the file.  The attack
     only wins when the symlink lands in the window AND the janitor
     has not yet repaired it. *)
  let module S = Osmodel.Scheduler in
  let init () = ref [] in
  let mark label = S.step label (fun l -> l := label :: !l) in
  let verdicts =
    S.explore_n ~init
      ~procs:
        [ [ mark "check"; mark "open" ];
          [ mark "swap" ];
          [ mark "repair" ] ]
      ~check:(fun l ->
          match List.rev !l with
          | [ "check"; "swap"; "open"; "repair" ]
          | [ "check"; "swap"; "repair"; "open" ] ->
              (* swap inside the window; did repair beat the open? *)
              if List.rev !l = [ "check"; "swap"; "open"; "repair" ] then Some "won"
              else None
          | _ -> None)
      ()
  in
  Alcotest.(check int) "exactly one winning schedule" 1
    (List.length verdicts.S.verdicts)

(* ---- %hn ----------------------------------------------------------- *)

let test_fmt_hn_short_write () =
  let mem = Machine.Memory.create ~base:0x1000 ~size:0x1000 in
  Machine.Memory.write_i32 mem 0x1200 0x11223344;
  Machine.Memory.write_i32 mem 0x1100 0x1200;
  let r = Apps.Format_interp.interpret mem ~fmt:"abcdef%hn" ~arg_cursor:0x1100 in
  (* Only the low 16 bits change: 0x1122_0006. *)
  Alcotest.(check int) "low half written" 0x11220006
    (Machine.Memory.read_i32 mem 0x1200);
  Alcotest.(check (list (pair int int))) "recorded" [ (0x1200, 6) ]
    r.Apps.Format_interp.writes

let test_fmt_hn_pair_composes_address () =
  (* The classic two-%hn trick: write both halves of a 32-bit value. *)
  let mem = Machine.Memory.create ~base:0x1000 ~size:0x2000 in
  let target = 0x1300 in
  Machine.Memory.write_i32 mem 0x1100 target;          (* arg 0: low half *)
  Machine.Memory.write_i32 mem 0x1104 (target + 2);    (* arg 1: high half *)
  (* Want 0x00020001: low half = 1 chars written, then 2 total. *)
  let r = Apps.Format_interp.interpret mem ~fmt:"a%hnb%hn" ~arg_cursor:0x1100 in
  Alcotest.(check int) "composed value" 0x00020001
    (Machine.Memory.read_i32 mem target);
  Alcotest.(check int) "two writes" 2 (List.length r.Apps.Format_interp.writes)

(* ---- the other two ambiguity families ---------------------------- *)

let test_buffer_pattern () =
  let rows = Apps.Buffer_overflow_pattern.ambiguity_rows () in
  Alcotest.(check int) "three activities" 3 (List.length rows);
  List.iter
    (fun (_, bugtraq, _, hidden) ->
       Alcotest.(check bool) (string_of_int bugtraq) true hidden;
       Alcotest.(check bool) "cited id" true (List.mem bugtraq [ 6157; 5960; 4479 ]))
    rows;
  Alcotest.(check bool) "lemma" true
    (Pfsm.Lemma.holds
       (Apps.Buffer_overflow_pattern.model ())
       ~scenarios:[ Apps.Buffer_overflow_pattern.exploit_scenario ]);
  Alcotest.(check bool) "benign" false
    (Pfsm.Trace.exploited
       (Pfsm.Model.run
          (Apps.Buffer_overflow_pattern.model ())
          ~env:Apps.Buffer_overflow_pattern.benign_scenario))

let test_format_pattern () =
  let rows = Apps.Format_string_pattern.ambiguity_rows () in
  Alcotest.(check int) "three activities" 3 (List.length rows);
  List.iter
    (fun (_, bugtraq, _, hidden) ->
       Alcotest.(check bool) (string_of_int bugtraq) true hidden;
       Alcotest.(check bool) "cited id" true (List.mem bugtraq [ 1387; 2210; 2264 ]))
    rows;
  Alcotest.(check bool) "lemma" true
    (Pfsm.Lemma.holds
       (Apps.Format_string_pattern.model ())
       ~scenarios:[ Apps.Format_string_pattern.exploit_scenario ]);
  Alcotest.(check bool) "benign" false
    (Pfsm.Trace.exploited
       (Pfsm.Model.run
          (Apps.Format_string_pattern.model ())
          ~env:Apps.Format_string_pattern.benign_scenario))

let test_patterns_distinct_categories () =
  let distinct rows =
    List.length
      (List.sort_uniq compare
         (List.map (fun (_, _, c, _) -> Vulndb.Category.to_string c) rows))
  in
  Alcotest.(check int) "buffer family" 3
    (distinct (Apps.Buffer_overflow_pattern.ambiguity_rows ()));
  Alcotest.(check int) "format family" 3
    (distinct (Apps.Format_string_pattern.ambiguity_rows ()))

let () =
  Alcotest.run "extensions"
    [ ("checks",
       [ Alcotest.test_case "registry" `Quick test_checks_registry;
         Alcotest.test_case "predicates behave" `Quick test_checks_predicates_behave;
         Alcotest.test_case "pfsm builder" `Quick test_checks_pfsm_builder ]);
      ("verify",
       [ Alcotest.test_case "refutes" `Quick test_verify_refutes;
         Alcotest.test_case "verifies secured" `Quick test_verify_verifies_secured;
         Alcotest.test_case "domain sizes" `Quick test_verify_domain_sizes;
         Alcotest.test_case "too large" `Quick test_verify_too_large;
         Alcotest.test_case "alphabet witness" `Quick test_verify_alphabet_finds_witness;
         QCheck_alcotest.to_alcotest prop_verify_agrees_with_witness_search ]);
      ("metrics",
       [ Alcotest.test_case "sendmail" `Quick test_metrics_sendmail;
         Alcotest.test_case "nullhttpd" `Quick test_metrics_nullhttpd;
         Alcotest.test_case "kinds sum" `Quick test_metrics_kinds_sum;
         Alcotest.test_case "distinct predicates" `Quick
           test_metrics_distinct_predicates ]);
      ("query/trend/csv",
       [ Alcotest.test_case "by software" `Quick test_query_by_software;
         Alcotest.test_case "by flaw" `Quick test_query_by_flaw;
         Alcotest.test_case "between dates" `Quick test_query_between_dates;
         Alcotest.test_case "text search" `Quick test_query_text_search;
         Alcotest.test_case "remote share" `Quick test_query_remote_share;
         Alcotest.test_case "trend sums" `Quick test_trend_per_year_sums;
         Alcotest.test_case "trend sorted" `Quick test_trend_years_sorted;
         Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
         Alcotest.test_case "csv export" `Quick test_csv_export_shape;
         Alcotest.test_case "csv parse round trip" `Quick
           test_csv_parse_round_trip_seed;
         Alcotest.test_case "csv quoted fields" `Quick test_csv_parse_quoted_fields;
         Alcotest.test_case "csv parse errors" `Quick test_csv_parse_errors;
         Alcotest.test_case "csv malformed locations" `Quick
           test_csv_malformed_locations;
         QCheck_alcotest.to_alcotest prop_csv_round_trip ]);
      ("heap extensions",
       [ Alcotest.test_case "realloc" `Quick test_heap_realloc_preserves_prefix;
         Alcotest.test_case "validate clean" `Quick test_heap_validate_clean;
         Alcotest.test_case "validate smashed size" `Quick
           test_heap_validate_detects_smashed_size;
         Alcotest.test_case "validate after attack" `Quick
           test_heap_validate_after_unlink_attack ]);
      ("aslr",
       [ Alcotest.test_case "slides regions" `Quick test_aslr_slides_regions;
         Alcotest.test_case "moves layout" `Quick test_aslr_moves_layout;
         Alcotest.test_case "GOT fixed" `Quick test_aslr_got_not_slid;
         Alcotest.test_case "ablation rows" `Quick test_ablation_rows ]);
      ("table-1 pattern",
       [ Alcotest.test_case "ambiguity rows" `Quick test_pattern_ambiguity_rows;
         Alcotest.test_case "matches seed data" `Quick test_pattern_matches_seed_data;
         Alcotest.test_case "benign" `Quick test_pattern_benign;
         Alcotest.test_case "lemma" `Quick test_pattern_lemma ]);
      ("simplify",
       [ Alcotest.test_case "rewrite rules" `Quick test_simplify_units;
         Alcotest.test_case "keeps nontrivial" `Quick test_simplify_keeps_nontrivial;
         QCheck_alcotest.to_alcotest prop_simplify_refines ]);
      ("scheduler n",
       [ Alcotest.test_case "counts" `Quick test_scheduler_n_counts;
         Alcotest.test_case "order preserved" `Quick test_scheduler_n_order_preserved;
         Alcotest.test_case "three-party race" `Quick
           test_scheduler_explore_n_three_party_race ]);
      ("%hn",
       [ Alcotest.test_case "short write" `Quick test_fmt_hn_short_write;
         Alcotest.test_case "pair composes address" `Quick
           test_fmt_hn_pair_composes_address ]);
      ("ambiguity families",
       [ Alcotest.test_case "buffer overflow family" `Quick test_buffer_pattern;
         Alcotest.test_case "format string family" `Quick test_format_pattern;
         Alcotest.test_case "distinct categories" `Quick
           test_patterns_distinct_categories ]) ]
