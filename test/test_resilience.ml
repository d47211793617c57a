(* The supervision layer: deterministic backoff, circuit breaking,
   quarantine, checkpointed resume, and the chaos harness contract. *)

module R = Resilience
module Sup = R.Supervisor

let transient failures =
  (* a work thunk that hits a simulated fault [failures] times, then
     succeeds *)
  let left = ref failures in
  fun () ->
    if !left > 0 then begin
      decr left;
      Fault.Condition.fail (Fault.Condition.Heap_exhausted { requested = 64 })
    end
    else "done"

(* ---- retry -------------------------------------------------------- *)

let test_delays () =
  let d = R.Retry.delays R.Retry.default in
  Alcotest.(check int) "max_attempts - 1 delays" 4 (List.length d);
  Alcotest.(check (list int)) "pure" d (R.Retry.delays R.Retry.default);
  List.iter
    (fun delay ->
       Alcotest.(check bool) "within jitter envelope" true
         (delay >= 0 && delay <= 400 + 100))
    d

let action_to_string = function
  | R.Retry.Backoff d -> Printf.sprintf "backoff %d" d
  | R.Retry.Quarantine c -> "quarantine: " ^ R.Quarantine.cause_to_string c

let test_step_table () =
  (* every failure kind, below and at the attempt cap, for a policy
     that allows one attempt and for the default five *)
  let one = { R.Retry.default with max_attempts = 1 }
  and five = R.Retry.default in
  let d = Array.of_list (R.Retry.delays five) in
  let c = Fault.Condition.Heap_exhausted { requested = 64 } in
  let refused = R.Retry.Refused { resource = "db" }
  and failed = R.Retry.Failed c
  and rejected = R.Retry.Rejected "bad"
  and crashed = R.Retry.Crashed "boom" in
  let backoff k = R.Retry.Backoff d.(k - 1) in
  let open R.Quarantine in
  let quarantine cause = R.Retry.Quarantine cause in
  let breaker_open = quarantine (Breaker_open { resource = "db" }) in
  let exhausted attempts =
    quarantine (Retries_exhausted { attempts; last = c })
  in
  let reject = quarantine (Rejected { detail = "bad" }) in
  let crash = quarantine (Crash { exn = "boom" }) in
  List.iter
    (fun (name, policy, attempt, failure, expected) ->
       Alcotest.(check string) name (action_to_string expected)
         (action_to_string (R.Retry.step policy ~attempt failure)))
    [ ("refused, 1 < 5", five, 1, refused, backoff 1);
      ("refused, 4 < 5", five, 4, refused, backoff 4);
      ("refused, 5 = 5", five, 5, refused, breaker_open);
      ("refused, 1 = 1", one, 1, refused, breaker_open);
      ("failed, 1 < 5", five, 1, failed, backoff 1);
      ("failed, 4 < 5", five, 4, failed, backoff 4);
      ("failed, 5 = 5", five, 5, failed, exhausted 5);
      ("failed, 1 = 1", one, 1, failed, exhausted 1);
      ("rejected, 1 < 5", five, 1, rejected, reject);
      ("rejected, 5 = 5", five, 5, rejected, reject);
      ("rejected, 1 = 1", one, 1, rejected, reject);
      ("crashed, 1 < 5", five, 1, crashed, crash);
      ("crashed, 5 = 5", five, 5, crashed, crash);
      ("crashed, 1 = 1", one, 1, crashed, crash) ]

let prop_run_bounded =
  let open QCheck in
  (* items share one breaker; each item's work follows its own script
     of attempt results (then succeeds) *)
  let result = oneofl [ `Ok; `Fault; `Reject; `Crash ] in
  let items =
    list_of_size (Gen.int_range 1 8) (list_of_size (Gen.int_range 0 8) result)
  in
  Test.make ~name:"retry: run is bounded, one verdict, exact clock" ~count:300
    (quad (int_range 1 6) (int_range 1 4) (int_range 0 300) items)
    (fun (max_attempts, failure_threshold, cooldown, items) ->
       let policy = { R.Retry.default with max_attempts } in
       let breaker =
         R.Breaker.create ~config:{ R.Breaker.failure_threshold; cooldown }
           ~resource:"r" ()
       in
       let clock = ref 0 in
       let verdicts =
         List.map
           (fun script ->
              let script = ref script and before = !clock and waited = ref 0 in
              let calls = ref 0 in
              let work ~attempt:_ =
                incr calls;
                match !script with
                | [] -> "done"
                | r :: rest -> (
                    script := rest;
                    match r with
                    | `Ok -> "done"
                    | `Fault ->
                        Fault.Condition.fail
                          (Fault.Condition.Fs_denied { path = "x" })
                    | `Reject -> raise (R.Quarantine.Reject "bad")
                    | `Crash -> failwith "bug")
              in
              let on_backoff ~attempt:_ ~delay = waited := !waited + delay in
              let verdict =
                R.Retry.run ~breaker ~clock ~on_backoff policy work
              in
              let attempts = match verdict with Ok (_, k) | Error (_, k) -> k in
              (attempts, !calls, !clock - before - !waited))
           items
       in
       List.length verdicts = List.length items
       && List.for_all
            (fun (attempts, calls, ticks) ->
               1 <= attempts && attempts <= max_attempts && calls <= attempts
               && ticks = attempts)
            verdicts)

let prop_same_seed_same_schedule =
  let open QCheck in
  Test.make ~name:"retry: same seed, same backoff schedule" ~count:200
    (quad small_nat (int_range 1 8) (int_range 1 100) (int_range 0 50))
    (fun (seed, max_attempts, base_delay, jitter_percent) ->
       let policy =
         { R.Retry.max_attempts; base_delay; max_delay = base_delay * 8;
           jitter_percent; seed }
       in
       let d1 = R.Retry.delays policy and d2 = R.Retry.delays policy in
       d1 = d2
       && List.length d1 = max_attempts - 1
       && List.for_all (fun d -> d >= 0) d1)

(* ---- breaker ------------------------------------------------------ *)

let test_breaker_lifecycle () =
  let b = R.Breaker.create ~resource:"db" () in
  R.Breaker.failure b ~now:1 ~cause:"x";
  R.Breaker.failure b ~now:2 ~cause:"x";
  Alcotest.(check bool) "two failures stay closed" true
    (R.Breaker.state b = R.Breaker.Closed);
  R.Breaker.failure b ~now:3 ~cause:"x";
  Alcotest.(check bool) "third failure trips" true
    (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check bool) "open refuses" false (R.Breaker.acquire b ~now:10);
  Alcotest.(check bool) "cooldown admits a probe" true
    (R.Breaker.acquire b ~now:203);
  Alcotest.(check bool) "probing" true (R.Breaker.state b = R.Breaker.Half_open);
  R.Breaker.failure b ~now:204 ~cause:"y";
  Alcotest.(check bool) "failed probe re-opens" true
    (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check int) "two typed trips" 2 (R.Breaker.trip_count b);
  ignore (R.Breaker.acquire b ~now:500);
  R.Breaker.success b;
  Alcotest.(check bool) "successful probe closes" true
    (R.Breaker.state b = R.Breaker.Closed);
  match R.Breaker.last_trip b with
  | Some trip ->
      Alcotest.(check string) "trip names the resource" "db"
        trip.R.Breaker.resource;
      Alcotest.(check int) "trip records the time" 204 trip.R.Breaker.at;
      Alcotest.(check string) "trip records the fault" "y" trip.R.Breaker.cause
  | None -> Alcotest.fail "no trip recorded"

let prop_breaker_no_open_to_closed =
  let open QCheck in
  (* whatever the operation sequence, Open -> Closed never happens
     directly: it must pass Half_open *)
  let op = oneofl [ `Acquire; `Success; `Failure ] in
  Test.make ~name:"breaker: Open->Closed only via Half_open" ~count:500
    (list_of_size (Gen.int_range 0 40) op)
    (fun ops ->
       let b =
         R.Breaker.create
           ~config:{ R.Breaker.failure_threshold = 2; cooldown = 5 }
           ~resource:"r" ()
       in
       let now = ref 0 in
       List.iter
         (fun o ->
            incr now;
            match o with
            | `Acquire -> ignore (R.Breaker.acquire b ~now:!now)
            | `Success -> R.Breaker.success b
            | `Failure -> R.Breaker.failure b ~now:!now ~cause:"f")
         ops;
       List.for_all
         (fun edge -> edge <> (R.Breaker.Open, R.Breaker.Closed))
         (R.Breaker.edges b))

(* ---- deadline ----------------------------------------------------- *)

let test_deadline () =
  let d = R.Deadline.of_fuel 10 in
  Alcotest.(check bool) "grant within fuel" true (R.Deadline.spend d 4);
  Alcotest.(check int) "used" 4 (R.Deadline.used d);
  Alcotest.(check bool) "refuse beyond fuel" false (R.Deadline.spend d 7);
  Alcotest.(check bool) "exhaustion is sticky" false (R.Deadline.spend d 1);
  Alcotest.(check int) "refusals spend nothing" 4 (R.Deadline.used d)

(* ---- checkpoint --------------------------------------------------- *)

let test_checkpoint_file () =
  let path = Filename.temp_file "dfsm-test" ".checkpoint" in
  Sys.remove path;
  let cp = R.Checkpoint.load path in
  R.Checkpoint.mark cp ~id:"plain" ~attempts:1;
  R.Checkpoint.mark cp ~id:"with space" ~attempts:2;
  R.Checkpoint.mark cp ~id:"with\nnewline" ~attempts:3;
  R.Checkpoint.mark cp ~id:"plain" ~attempts:9;
  let reloaded = R.Checkpoint.load path in
  Alcotest.(check int) "entries survive reload" 3 (R.Checkpoint.count reloaded);
  Alcotest.(check (list string)) "journal order"
    [ "plain"; "with space"; "with\nnewline" ]
    (R.Checkpoint.ids reloaded);
  Alcotest.(check (option int)) "first mark wins" (Some 1)
    (R.Checkpoint.attempts reloaded "plain");
  Alcotest.(check (option int)) "escaped id round-trips" (Some 3)
    (R.Checkpoint.attempts reloaded "with\nnewline");
  R.Checkpoint.reset reloaded;
  Alcotest.(check bool) "reset removes the file" false (Sys.file_exists path)

(* A journal file holding these lines, each newline-terminated. *)
let journal_with lines =
  let path = Filename.temp_file "dfsm-test" ".checkpoint" in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
  path

let damage cp =
  List.map
    (fun (n, d) -> (n, R.Checkpoint.damage_to_string d))
    (R.Checkpoint.skipped_detail cp)

let test_checkpoint_skipped_surfaced () =
  (* sealed lines that verify but do not parse as "<attempts> <id>" *)
  let path =
    journal_with
      (List.map Store.Record.seal_line
         [ "1 ok"; "not a journal line"; "2 also-ok"; "x y" ])
  in
  let cp = R.Checkpoint.load path in
  Alcotest.(check int) "valid entries load" 2 (R.Checkpoint.count cp);
  Alcotest.(check int) "corrupt lines counted" 2 (R.Checkpoint.skipped cp);
  Alcotest.(check (list int)) "corrupt lines located" [ 2; 4 ]
    (R.Checkpoint.skipped_lines cp);
  (* per-line classification: only the final line can be the prefix a
     crash mid-append leaves; damage before it is mid-file corruption *)
  Alcotest.(check (list string)) "damage classified"
    [ "corrupt"; "torn-tail" ]
    (List.map
       (fun (_, d) -> R.Checkpoint.damage_to_string d)
       (R.Checkpoint.skipped_detail cp));
  R.Checkpoint.reset cp;
  Alcotest.(check int) "reset clears the count" 0 (R.Checkpoint.skipped cp)

let test_checkpoint_bare_lines_rejected () =
  (* a line without a seal carries no checksum: it is damage, never an
     entry, wherever it sits *)
  let cp =
    R.Checkpoint.load
      (journal_with [ "1 bare-a"; Store.Record.seal_line "2 sealed"; "3 bare-b" ])
  in
  Alcotest.(check (list string)) "only the sealed id loads" [ "sealed" ]
    (R.Checkpoint.ids cp);
  Alcotest.(check (list (pair int string))) "bare lines are damage"
    [ (1, "corrupt"); (3, "torn-tail") ]
    (damage cp);
  R.Checkpoint.reset cp

let test_checkpoint_attempts_decimal () =
  (* [mark] writes [%d] of a count >= 1: any other attempts field is
     damage, even under a seal that verifies *)
  let cp =
    R.Checkpoint.load
      (journal_with
         (List.map Store.Record.seal_line
            [ "12 ok"; "0x10 a"; "1_0 b"; "-3 c"; "+2 d"; "0 e" ]))
  in
  Alcotest.(check (list string)) "only the decimal count loads" [ "ok" ]
    (R.Checkpoint.ids cp);
  Alcotest.(check (option int)) "its attempts" (Some 12)
    (R.Checkpoint.attempts cp "ok");
  Alcotest.(check (list (pair int string))) "the rest are damage"
    [ (2, "corrupt"); (3, "corrupt"); (4, "corrupt"); (5, "corrupt");
      (6, "torn-tail") ]
    (damage cp);
  R.Checkpoint.reset cp

let test_checkpoint_midfile_corruption () =
  (* a sealed journal with one line flipped in the middle: the damaged
     line is skipped and classified Corrupt, every other entry loads *)
  let path = Filename.temp_file "dfsm-test" ".checkpoint" in
  Sys.remove path;
  let cp = R.Checkpoint.load path in
  List.iter
    (fun id -> R.Checkpoint.mark cp ~id ~attempts:1)
    [ "a"; "b"; "c" ];
  R.Checkpoint.finalize cp;
  let journal = In_channel.with_open_bin path In_channel.input_all in
  let second = String.index_from journal (String.index journal '\n' + 1) '\n' in
  let b = Bytes.of_string journal in
  Bytes.set b (second - 1) (Char.chr (Char.code (Bytes.get b (second - 1)) lxor 1));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let reloaded = R.Checkpoint.load path in
  Alcotest.(check (list string)) "undamaged entries load" [ "a"; "c" ]
    (R.Checkpoint.ids reloaded);
  (match R.Checkpoint.skipped_detail reloaded with
   | [ (2, R.Checkpoint.Corrupt) ] -> ()
   | _ -> Alcotest.fail "mid-file damage not classified Corrupt at line 2");
  R.Checkpoint.reset reloaded

(* ---- supervisor --------------------------------------------------- *)

let item id work = { Sup.id; resource = "r"; work }

(* The quarantined items of a report, as (id, attempts, cause): the
   report is a quarantine's one record. *)
let quarantines (r : R.Run_report.t) =
  List.filter_map
    (fun (it : R.Run_report.item) ->
       match it.R.Run_report.outcome with
       | R.Run_report.Quarantined { attempts; cause } ->
           Some (it.R.Run_report.id, attempts, cause)
       | R.Run_report.Completed _ -> None)
    r.R.Run_report.items

let test_supervisor_outcomes () =
  let out =
    Sup.run ~label:"t"
      [ item "ok" (fun () -> 1);
        item "flaky" (let w = transient 2 in fun () -> ignore (w ()); 2);
        item "reject" (fun () -> raise (R.Quarantine.Reject "malformed"));
        item "crash" (fun () -> failwith "bug");
        item "after" (fun () -> 5) ]
  in
  let r = out.Sup.report in
  Alcotest.(check int) "all items accounted for" 5 (R.Run_report.total r);
  Alcotest.(check int) "three completed" 3 (R.Run_report.completed r);
  Alcotest.(check int) "one retried" 1 (R.Run_report.retried r);
  Alcotest.(check int) "two quarantined" 2 (R.Run_report.quarantined r);
  Alcotest.(check bool) "degraded, not ok" false (R.Run_report.ok r);
  Alcotest.(check (list (pair string int))) "results in order, sweep continued"
    [ ("ok", 1); ("flaky", 2); ("after", 5) ]
    out.Sup.results;
  let find id = List.find_opt (fun (id', _, _) -> id' = id) (quarantines r) in
  (match find "reject" with
   | Some (_, _, R.Quarantine.Rejected { detail }) ->
       Alcotest.(check string) "typed rejection" "malformed" detail
   | _ -> Alcotest.fail "reject not quarantined as Rejected");
  match find "crash" with
  | Some (_, 1, R.Quarantine.Crash _) -> ()
  | _ -> Alcotest.fail "crash not quarantined as Crash"

let test_supervisor_breaker_trips () =
  (* one shared resource failing hard: the breaker trips and later
     items are refused without burning their full schedules *)
  let fail_item id =
    { Sup.id;
      resource = "shared";
      work =
        (fun () ->
           Fault.Condition.fail (Fault.Condition.Fs_denied { path = id })) }
  in
  let out = Sup.run (List.init 4 (fun i -> fail_item (string_of_int i))) in
  Alcotest.(check int) "every item accounted for" 4
    (R.Run_report.total out.Sup.report);
  match out.Sup.breakers with
  | [ b ] ->
      Alcotest.(check bool) "breaker tripped" true (R.Breaker.trip_count b > 0);
      Alcotest.(check bool) "typed trip cause" true
        (match R.Breaker.last_trip b with
         | Some trip -> String.length trip.R.Breaker.cause > 0
         | None -> false)
  | bs -> Alcotest.failf "expected 1 breaker, got %d" (List.length bs)

let flaky_items ~seed n =
  (* n items, deterministically flaky from [seed]; records how often
     each id was analyzed to completion (retries before success are
     the same analysis, so the counter ticks on success only) *)
  let runs = Hashtbl.create 16 in
  let items =
    List.init n (fun i ->
        let id = Printf.sprintf "item-%02d" i in
        let failures = (seed + (i * 7)) mod 3 in
        let w = transient failures in
        { Sup.id;
          resource = "r" ^ string_of_int (i mod 2);
          work =
            (fun () ->
               let v = w () in
               Hashtbl.replace runs id
                 (1 + try Hashtbl.find runs id with Not_found -> 0);
               v) })
  in
  (items, runs)

let executions runs id = try Hashtbl.find runs id with Not_found -> 0

let test_resume_exactly_once () =
  let n = 6 in
  let cp = R.Checkpoint.in_memory () in
  let items, runs = flaky_items ~seed:3 n in
  let _interrupted = Sup.run ~checkpoint:cp ~stop_after:3 items in
  let items2, runs2 = flaky_items ~seed:3 n in
  let resumed = Sup.run ~checkpoint:cp items2 in
  let fresh_items, _ = flaky_items ~seed:3 n in
  let uninterrupted = Sup.run fresh_items in
  Alcotest.(check bool) "resumed report covers every item" true
    (R.Run_report.no_lost ~expected:n resumed.Sup.report);
  Alcotest.(check int) "three items resumed from the journal" 3
    (R.Run_report.resumed resumed.Sup.report);
  Alcotest.(check bool) "same outcomes as an uninterrupted run" true
    (R.Run_report.same_outcomes resumed.Sup.report uninterrupted.Sup.report);
  List.iter
    (fun (it : _ Sup.item) ->
       let total = executions runs it.Sup.id + executions runs2 it.Sup.id in
       Alcotest.(check int)
         (Printf.sprintf "%s analyzed exactly once" it.Sup.id)
         1 total)
    items

let prop_resume_exactly_once =
  let open QCheck in
  Test.make ~name:"supervisor: checkpointed resume analyzes each item once"
    ~count:50
    (triple (int_range 1 12) small_nat small_nat)
    (fun (n, stop, seed) ->
       let stop = stop mod (n + 1) in
       let cp = R.Checkpoint.in_memory () in
       let items, runs = flaky_items ~seed n in
       ignore (Sup.run ~checkpoint:cp ~stop_after:stop items);
       let items2, runs2 = flaky_items ~seed n in
       let resumed = Sup.run ~checkpoint:cp items2 in
       let fresh, _ = flaky_items ~seed n in
       let uninterrupted = Sup.run fresh in
       R.Run_report.no_lost ~expected:n resumed.Sup.report
       && R.Run_report.same_outcomes resumed.Sup.report uninterrupted.Sup.report
       && List.for_all
            (fun (it : _ Sup.item) ->
               executions runs it.Sup.id + executions runs2 it.Sup.id = 1)
            items)

let prop_torn_journal_resume =
  let open QCheck in
  (* Crash-consistency of the file journal: kill a sweep after [stop]
     items, then truncate its journal at an arbitrary byte offset — a
     torn tail, as a real crash mid-append leaves.  Reloading must
     surface at most one unparseable line (the torn one), never error;
     the resumed sweep must account for every item with the same
     outcomes as an uninterrupted run; and no item's side effects run
     more than twice (once before the kill, once more only if the
     truncation ate its journal record). *)
  Test.make ~name:"checkpoint: torn journal resumes with no loss, no double effects"
    ~count:60
    (quad (int_range 1 10) small_nat small_nat small_nat)
    (fun (n, stop, seed, cut) ->
       let stop = stop mod (n + 1) in
       let path = Filename.temp_file "dfsm-torn" ".journal" in
       Sys.remove path;
       let cp = R.Checkpoint.load path in
       let items, runs = flaky_items ~seed n in
       ignore (Sup.run ~checkpoint:cp ~stop_after:stop items);
       R.Checkpoint.finalize cp;
       let journal =
         if Sys.file_exists path then
           In_channel.with_open_bin path In_channel.input_all
         else ""
       in
       let cut = cut mod (String.length journal + 1) in
       Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc (String.sub journal 0 cut));
       let reloaded = R.Checkpoint.load path in
       let items2, runs2 = flaky_items ~seed n in
       let resumed = Sup.run ~checkpoint:reloaded items2 in
       let fresh, _ = flaky_items ~seed n in
       let uninterrupted = Sup.run fresh in
       if Sys.file_exists path then begin
         R.Checkpoint.finalize reloaded;
         Sys.remove path
       end;
       R.Checkpoint.skipped reloaded <= 1
       (* a truncation can only damage the final surviving line, and
          the per-line checksum classifies exactly that *)
       && List.for_all
            (fun (_, d) -> d = R.Checkpoint.Torn_tail)
            (R.Checkpoint.skipped_detail reloaded)
       && resumed.Sup.report.R.Run_report.journal_skipped
          = R.Checkpoint.skipped reloaded
       && R.Run_report.no_lost ~expected:n resumed.Sup.report
       && R.Run_report.same_outcomes resumed.Sup.report uninterrupted.Sup.report
       && List.for_all
            (fun (it : _ Sup.item) ->
               let e = executions runs it.Sup.id + executions runs2 it.Sup.id in
               1 <= e && e <= 2)
            items)

(* ---- ingest ------------------------------------------------------- *)

let curated_csv = Vulndb.Csv.of_database (Vulndb.Seed_data.database ())

let test_ingest_clean () =
  match R.Ingest.csv curated_csv with
  | Error e -> Alcotest.failf "clean ingest failed: %s" (Vulndb.Csv.error_to_string e)
  | Ok o ->
      Alcotest.(check bool) "whole database survives" true
        (Vulndb.Database.reports o.R.Ingest.db
         = Vulndb.Database.reports (Vulndb.Seed_data.database ()));
      Alcotest.(check bool) "report ok" true (R.Run_report.ok o.R.Ingest.report)

let test_ingest_bad_document () =
  (match R.Ingest.csv "not,a,header\n1,2,3\n" with
   | Error { Vulndb.Csv.line = 1; _ } -> ()
   | Error e -> Alcotest.failf "wrong line %d" e.Vulndb.Csv.line
   | Ok _ -> Alcotest.fail "bad header accepted");
  match R.Ingest.csv (Vulndb.Csv.header ^ "\n1,2,3\n") with
  | Ok o ->
      Alcotest.(check int) "ragged row quarantined, not fatal" 1
        (R.Run_report.quarantined o.R.Ingest.report);
      Alcotest.(check int) "nothing ingested" 0 (Vulndb.Database.size o.R.Ingest.db)
  | Error e -> Alcotest.failf "row-level error escaped: %s" (Vulndb.Csv.error_to_string e)

let test_ingest_under_bitflip () =
  let run () =
    Fault.Hooks.with_plan Fault.Catalog.bitflip (fun () -> R.Ingest.csv curated_csv)
  in
  match run (), run () with
  | Ok a, Ok b ->
      let expected = Vulndb.Database.size (Vulndb.Seed_data.database ()) in
      Alcotest.(check bool) "no lost rows under bitflip" true
        (R.Run_report.no_lost ~expected a.R.Ingest.report);
      Alcotest.(check bool) "corruption quarantines as Rejected" true
        (List.for_all
           (fun (_, _, cause) ->
              match cause with R.Quarantine.Rejected _ -> true | _ -> false)
           (quarantines a.R.Ingest.report));
      Alcotest.(check string) "deterministic under the plan seed"
        (Json.to_string (R.Run_report.to_json a.R.Ingest.report))
        (Json.to_string (R.Run_report.to_json b.R.Ingest.report))
  | _ -> Alcotest.fail "document-level failure under bitflip"

let with_jobs jobs f =
  let prev = Par.jobs () in
  Par.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Par.set_jobs prev) f

let csv_doc rows = String.concat "\n" (Vulndb.Csv.header :: rows) ^ "\n"

let curated_reports () = Vulndb.Database.reports (Vulndb.Seed_data.database ())

(* Every third curated row twice, then an impostor that recycles the
   first report's id: [List.length rows - List.length reports] later
   duplicates. *)
let duplicate_rows reports =
  let first = List.hd reports in
  let impostor =
    Vulndb.Report.make ~id:first.Vulndb.Report.id
      ~title:"Impostor row with a recycled id" ~date:"1999-01-01"
      ~category:Vulndb.Category.Unknown ~software:"impostor" ()
  in
  List.concat
    (List.mapi
       (fun i r ->
         let row = Vulndb.Csv.of_report r in
         if i mod 3 = 0 then [ row; row ] else [ row ])
       reports)
  @ [ Vulndb.Csv.of_report impostor ]

let test_ingest_duplicates_parallel_identical () =
  (* duplicate detection used to live inside the per-row work closure
     behind a shared Hashtbl, so speculating rows on pool domains
     raced on it; it is now a sequential post-pass, and a
     duplicate-bearing document must ingest identically at -j 1
     without speculation (an installed injector turns it off) and
     speculated at -j 4 *)
  let reports = curated_reports () in
  let first = List.hd reports in
  let rows = duplicate_rows reports in
  let doc = csv_doc rows in
  let seq =
    with_jobs 1 (fun () ->
        Fault.Hooks.with_plan Fault.Catalog.none (fun () -> R.Ingest.csv doc))
  in
  let par = with_jobs 4 (fun () -> R.Ingest.csv doc) in
  match seq, par with
  | Ok a, Ok b ->
      Alcotest.(check bool) "databases identical" true
        (Vulndb.Database.reports a.R.Ingest.db
         = Vulndb.Database.reports b.R.Ingest.db);
      Alcotest.(check string) "run reports byte-identical"
        (Json.to_string (R.Run_report.to_json a.R.Ingest.report))
        (Json.to_string (R.Run_report.to_json b.R.Ingest.report));
      Alcotest.(check bool) "first occurrence wins" true
        (List.exists
           (fun (r : Vulndb.Report.t) ->
             r.Vulndb.Report.id = first.Vulndb.Report.id
             && r.Vulndb.Report.title = first.Vulndb.Report.title)
           (Vulndb.Database.reports a.R.Ingest.db));
      let dup_count =
        List.length
          (List.filter
             (fun (_, _, cause) ->
               match cause with
               | R.Quarantine.Rejected { detail } ->
                   let sub = "duplicate report id" in
                   let rec find i =
                     i + String.length sub <= String.length detail
                     && (String.sub detail i (String.length sub) = sub
                         || find (i + 1))
                   in
                   find 0
               | _ -> false)
             (quarantines a.R.Ingest.report))
      in
      Alcotest.(check int) "every later duplicate quarantined"
        (List.length rows - List.length reports)
        dup_count
  | _ -> Alcotest.fail "duplicate-bearing document failed to ingest"

let test_ingest_many_rejects () =
  (* ~6000 rejects among ~12000 rows must ingest at once: the
     post-pass is one walk over the report's items with O(1) duplicate
     lookups, linear in the rows, never rows x rejects *)
  let valid =
    Vulndb.Database.reports (Vulndb.Synth.generate ~seed:41)
    |> List.map Vulndb.Csv.of_report
  in
  let bad = List.init 6000 (fun i -> Printf.sprintf "bad,row,%d" i) in
  let doc = csv_doc (valid @ bad) in
  match R.Ingest.csv doc with
  | Error e -> Alcotest.failf "document-level failure: %s" (Vulndb.Csv.error_to_string e)
  | Ok o ->
      Alcotest.(check int) "valid rows ingested" (List.length valid)
        (Vulndb.Database.size o.R.Ingest.db);
      Alcotest.(check int) "every bad row quarantined" (List.length bad)
        (R.Run_report.quarantined o.R.Ingest.report);
      Alcotest.(check bool) "no lost rows" true
        (R.Run_report.no_lost
           ~expected:(List.length valid + List.length bad)
           o.R.Ingest.report)

(* ---- a quarantine counts once -------------------------------------- *)

(* A quarantined item is announced once, where its report outcome is
   decided: the [resilience.quarantine.isolated] delta and the traced
   [quarantine] instants both match the report's quarantined items. *)
let test_quarantine_counted_once () =
  let isolated = Obs.Metrics.counter "resilience.quarantine.isolated" in
  let check name run =
    let before = Obs.Metrics.counter_value isolated in
    Obs.Trace.start ();
    let report = run () in
    let events = Obs.Trace.drain () in
    let ids = List.map (fun (id, _, _) -> id) (quarantines report) in
    let n = R.Run_report.quarantined report in
    Alcotest.(check bool) (name ^ ": quarantines") true (n >= 1);
    Alcotest.(check int) (name ^ ": counter delta = quarantined") n
      (Obs.Metrics.counter_value isolated - before);
    Alcotest.(check (list string)) (name ^ ": one instant per item")
      (List.sort compare ids)
      (List.sort compare
         (List.filter_map
            (fun (e : Obs.Trace.event) ->
               if e.Obs.Trace.ph = Obs.Trace.I && e.Obs.Trace.name = "quarantine"
               then List.assoc_opt "id" e.Obs.Trace.args
               else None)
            events))
  in
  let ingest doc () =
    match R.Ingest.csv doc with
    | Ok o -> o.R.Ingest.report
    | Error e -> Alcotest.failf "ingest failed: %s" (Vulndb.Csv.error_to_string e)
  in
  check "bitflip ingest" (fun () ->
      Fault.Hooks.with_plan Fault.Catalog.bitflip (ingest curated_csv));
  let ragged = List.init 5 (fun i -> Printf.sprintf "ragged,%d" i) in
  check "duplicates and ragged rows"
    (ingest (csv_doc (duplicate_rows (curated_reports ()) @ ragged)));
  check "supervisor" (fun () ->
      (Sup.run ~label:"t"
         [ item "reject" (fun () -> raise (R.Quarantine.Reject "malformed"));
           item "ok" (fun () -> 1);
           item "crash" (fun () -> failwith "bug") ])
        .Sup.report)

(* ---- chaos -------------------------------------------------------- *)

let test_chaos_contract () =
  let report = Chaos.run () in
  (* [violations] flags a lost item and an unbounded retry *)
  Alcotest.(check (list string)) "full-catalog contract" []
    (Chaos.violations report)

let test_chaos_stable () =
  Alcotest.(check bool) "same seed, byte-identical JSON" true
    (Chaos.stable ~plans:Fault.Catalog.smoke ())

(* Chaos prints [Injector.event_count], not the expanded event list:
   over the three legs a chaos plan runs (the matrix and the lint sweep
   supervised, the curated CSV ingested), the count must be the list's
   length under every catalog plan. *)
let test_chaos_event_count () =
  let csv = Vulndb.Csv.of_database (Vulndb.Seed_data.database ()) in
  let matrix =
    List.map
      (fun (app, entries) ->
         { Sup.id = "matrix:" ^ app; resource = app;
           work = (fun () -> List.length (entries ())) })
      Exploit.Consistency.app_groups
  in
  List.iter
    (fun (plan : Fault.Plan.t) ->
       let injector = Fault.Injector.create plan in
       Fault.Hooks.with_injector injector (fun () ->
           ignore (Sup.run ~label:"chaos-matrix" matrix);
           ignore (Staticcheck.Linter.supervised_sweep ());
           ignore (R.Ingest.csv ~label:"chaos-ingest" csv));
       Alcotest.(check int) plan.Fault.Plan.name
         (List.length (Fault.Injector.events injector))
         (Fault.Injector.event_count injector))
    Fault.Catalog.all

let prop_chaos_deterministic =
  let open QCheck in
  Test.make ~name:"chaos: same seed, identical run report" ~count:8 small_nat
    (fun seed ->
       let plans = [ Fault.Catalog.heap_pressure ] in
       Chaos.to_json (Chaos.run ~seed ~plans ())
       = Chaos.to_json (Chaos.run ~seed ~plans ()))

(* ---- suite -------------------------------------------------------- *)

let () =
  Alcotest.run "resilience"
    [ ("retry",
       [ Alcotest.test_case "schedule shape" `Quick test_delays;
         Alcotest.test_case "step table" `Quick test_step_table;
         QCheck_alcotest.to_alcotest prop_same_seed_same_schedule;
         QCheck_alcotest.to_alcotest prop_run_bounded ]);
      ("breaker",
       [ Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
         QCheck_alcotest.to_alcotest prop_breaker_no_open_to_closed ]);
      ("deadline", [ Alcotest.test_case "fuel is spent and sticky" `Quick test_deadline ]);
      ("checkpoint",
       [ Alcotest.test_case "file journal round trip" `Quick test_checkpoint_file;
         Alcotest.test_case "corrupt lines surfaced" `Quick
           test_checkpoint_skipped_surfaced;
         Alcotest.test_case "bare lines rejected" `Quick
           test_checkpoint_bare_lines_rejected;
         Alcotest.test_case "attempts are decimal digits >= 1" `Quick
           test_checkpoint_attempts_decimal;
         Alcotest.test_case "mid-file corruption classified" `Quick
           test_checkpoint_midfile_corruption;
         QCheck_alcotest.to_alcotest prop_torn_journal_resume ]);
      ("supervisor",
       [ Alcotest.test_case "typed outcomes" `Quick test_supervisor_outcomes;
         Alcotest.test_case "breaker trips" `Quick test_supervisor_breaker_trips;
         Alcotest.test_case "resume exactly once" `Quick test_resume_exactly_once;
         QCheck_alcotest.to_alcotest prop_resume_exactly_once ]);
      ("ingest",
       [ Alcotest.test_case "clean round trip" `Quick test_ingest_clean;
         Alcotest.test_case "bad documents and rows" `Quick test_ingest_bad_document;
         Alcotest.test_case "bitflip quarantine" `Quick test_ingest_under_bitflip;
         Alcotest.test_case "duplicates: -j 1 = -j 4 parallel" `Quick
           test_ingest_duplicates_parallel_identical;
         Alcotest.test_case "many rejects back-map instantly" `Quick
           test_ingest_many_rejects ]);
      ("quarantine",
       [ Alcotest.test_case "counted once" `Quick test_quarantine_counted_once ]);
      ("chaos",
       [ Alcotest.test_case "catalog contract" `Quick test_chaos_contract;
         Alcotest.test_case "stable smoke" `Quick test_chaos_stable;
         Alcotest.test_case "event count = events, every plan" `Quick
           test_chaos_event_count;
         QCheck_alcotest.to_alcotest prop_chaos_deterministic ]) ]
