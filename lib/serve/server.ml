module R = Resilience

type config = {
  capacity : int;
  default_fuel : int;
  max_line : int;
  retry : R.Retry.policy;
  breaker : R.Breaker.config;
}

let default_config =
  { capacity = 16;
    default_fuel = 64;
    max_line = 65536;
    retry = R.Retry.default;
    breaker = R.Breaker.default_config }

type summary = {
  admitted : int;
  shed : int;
  completed : int;
  errors : int;
  deadlined : int;
  quarantined : int;
  malformed : int;
  stats_served : int;
  batches : int;
  vt : int;
  drained : bool;
  latencies : int list;
  report : R.Run_report.t;
  store : Store.Disk.stats option;
      (** this run's delta against the ambient store, when one is
          installed *)
  store_degraded : int;
      (** requests that hit store corruption or a failed store write
          (and degraded to recompute) *)
}

let accounted s =
  s.admitted = s.completed + s.errors + s.deadlined + s.quarantined

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0
  | sorted ->
      let n = List.length sorted in
      let rank = max 1 (((p * n) + 99) / 100) in
      List.nth sorted (min (n - 1) (rank - 1))

let summary_to_json s =
  (* the store fields only appear when a store is installed, so runs
     without one render byte-identically to the pre-store format *)
  let store_fields =
    match s.store with
    | None -> []
    | Some st ->
        [ ("store", Store.Disk.stats_to_json st);
          ("store_degraded", Json.Int s.store_degraded) ]
  in
  Json.(
    Obj
      ([ ("status", Str "summary"); ("admitted", Int s.admitted); ("shed", Int s.shed);
         ("completed", Int s.completed); ("errors", Int s.errors);
         ("deadline", Int s.deadlined); ("quarantined", Int s.quarantined);
         ("malformed", Int s.malformed); ("stats", Int s.stats_served);
         ("batches", Int s.batches); ("vt", Int s.vt); ("drained", Bool s.drained);
         ("accounted", Bool (accounted s));
         ("latency_p50", Int (percentile 50 s.latencies));
         ("latency_p99", Int (percentile 99 s.latencies)) ]
       @ store_fields
       @ [ ("report", R.Run_report.to_json s.report) ]))

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>serve: %d admitted (%d completed, %d errors, %d deadline, %d \
     quarantined), %d shed, %d malformed, %d stats@,%d batch%s over %d virtual \
     time units; latency p50 %d, p99 %d@,drained %b, accounted %b"
    s.admitted s.completed s.errors s.deadlined s.quarantined s.shed
    s.malformed s.stats_served s.batches
    (if s.batches = 1 then "" else "es")
    s.vt
    (percentile 50 s.latencies) (percentile 99 s.latencies)
    s.drained (accounted s);
  (match s.store with
  | None -> ()
  | Some st ->
      Format.fprintf ppf
        "@,store: %d hits, %d misses, %d corrupt, %d repaired, %d writes (%d \
         failed), %d request%s degraded"
        st.Store.Disk.hits st.Store.Disk.misses st.Store.Disk.corrupt
        st.Store.Disk.repaired st.Store.Disk.writes
        st.Store.Disk.write_failures s.store_degraded
        (if s.store_degraded = 1 then "" else "s"));
  Format.fprintf ppf "@]"

(* ---- metrics ------------------------------------------------------ *)

let m_admitted = Obs.Metrics.counter "serve.admitted"
let m_shed = Obs.Metrics.counter "serve.shed"
let m_completed = Obs.Metrics.counter "serve.completed"
let m_quarantined = Obs.Metrics.counter "serve.quarantined"
let m_malformed = Obs.Metrics.counter "serve.malformed"
let m_batches = Obs.Metrics.counter "serve.batches"
let m_latency = Obs.Metrics.histogram "serve.latency"

(* ---- the loop ----------------------------------------------------- *)

type pending = {
  p_id : string;
  p_work : Protocol.work;
  p_fuel : int;
  p_arrived : int;
}

let run ?(config = default_config) ~emit source =
  Obs.Span.with_span ~cat:"serve" "serve" @@ fun () ->
  let queue : pending Admission.t = Admission.create ~capacity:config.capacity in
  let store_at_start =
    Option.map (fun _ -> Store.Disk.stats ()) (Store.Handle.get ())
  in
  let store_degraded = ref 0 in
  let vt = ref 0 in
  let line_no = ref 0 in
  let completed = ref 0 in
  let errors = ref 0 in
  let deadlined = ref 0 in
  let quarantined = ref 0 in
  let malformed = ref 0 in
  let stats_served = ref 0 in
  let batches = ref 0 in
  let rev_latencies = ref [] in
  let waited = ref 0 in
  let rev_report_items = ref [] in
  let breakers = R.Breaker.table config.breaker in
  let respond (r : Protocol.response) =
    (match r.Protocol.status with
     | Protocol.Ok_ -> incr completed
     | Protocol.Error_ -> incr errors
     | Protocol.Deadline -> incr deadlined
     | Protocol.Quarantined -> incr quarantined
     | Protocol.Overloaded -> ());
    emit (Protocol.render r)
  in
  let report_item id outcome =
    rev_report_items :=
      { R.Run_report.id; outcome; from_checkpoint = false }
      :: !rev_report_items
  in
  let invoke_handler (p : pending) ~attempt =
    Obs.Span.with_span ~cat:"serve"
      ~args:
        [ ("id", p.p_id); ("class", Protocol.work_class p.p_work);
          ("attempt", string_of_int attempt) ]
      ("request:" ^ p.p_id)
      (fun () -> Handlers.run ~attempt ~fuel:p.p_fuel p.p_work)
  in
  (* One request through the retry engine.  [speculated] yields the
     batch's speculative first attempt, or runs it. *)
  let supervise (p : pending) ~speculated =
    (* per-request degradation accounting: a request counts (once)
       when any of its attempts hit store corruption or a failed store
       write — i.e. it completed by recompute rather than by trusting
       the disk *)
    let degraded = ref false in
    let observed_invoke ~attempt =
      match Store.Handle.get () with
      | None -> invoke_handler p ~attempt
      | Some _ ->
          let before = Store.Disk.stats () in
          Fun.protect
            (fun () -> invoke_handler p ~attempt)
            ~finally:(fun () ->
              let after = Store.Disk.stats () in
              if
                (not !degraded)
                && (after.Store.Disk.corrupt > before.Store.Disk.corrupt
                   || after.Store.Disk.write_failures
                      > before.Store.Disk.write_failures)
              then begin
                degraded := true;
                incr store_degraded
              end)
    in
    let work ~attempt =
      if attempt = 1 then speculated (fun () -> observed_invoke ~attempt)
      else observed_invoke ~attempt
    in
    let on_backoff ~attempt:_ ~delay =
      waited := !waited + delay;
      Obs.Span.instant ~cat:"serve"
        ~args:
          [ ("id", p.p_id); ("delay", string_of_int delay);
            ("vt", string_of_int !vt) ]
        "backoff"
    in
    let policy =
      { config.retry with
        R.Retry.seed =
          config.retry.R.Retry.seed lxor Hashtbl.hash (p.p_id, p.p_arrived) }
    in
    let breaker = R.Breaker.lookup breakers (Protocol.work_class p.p_work) in
    match R.Retry.run ~breaker ~clock:vt ~on_backoff policy work with
    | Ok ((Handlers.Done payload, spent), attempts) ->
        vt := !vt + spent;
        let latency = !vt - p.p_arrived in
        rev_latencies := latency :: !rev_latencies;
        Obs.Metrics.incr m_completed;
        Obs.Metrics.observe m_latency latency;
        report_item p.p_id (R.Run_report.Completed { attempts });
        respond (Protocol.ok ~id:p.p_id ~latency ~attempts payload)
    | Ok ((Handlers.Deadline_hit { spent }, _), attempts) ->
        (* the request's own fuel ran out: not an environmental
           failure, so the breaker saw a success — a typed deadline
           response, terminally *)
        vt := !vt + spent;
        report_item p.p_id
          (R.Run_report.Quarantined
             { attempts; cause = R.Quarantine.Deadline_exceeded { spent } });
        respond (Protocol.deadline ~id:p.p_id ~attempts ~spent ())
    | Error (cause, attempts) ->
        report_item p.p_id (R.Run_report.Quarantined { attempts; cause });
        respond
          (match cause with
           | R.Quarantine.Rejected { detail } ->
               Protocol.error ~id:p.p_id ~attempts detail
           | _ -> Protocol.quarantined ~id:p.p_id ~attempts cause)
  in
  (* One batch: speculate first attempts on the pool, then replay the
     requests sequentially in admission order, owning the clock, the
     breakers and the response stream.  Speculation is skipped under an
     active injector (event stream must stay sequential) and under an
     ambient store: sequential-only attempts give every request a
     well-defined store delta, which is what makes [store_degraded] and
     the summary's store stats deterministic at every -j. *)
  let process_batch () =
    match Admission.drain queue with
    | [] -> ()
    | items ->
        incr batches;
        Obs.Metrics.incr m_batches;
        let speculated =
          if Fault.Hooks.current () = None && Store.Handle.get () = None then
            R.Supervisor.speculate ~label:"serve.batch"
              (fun p -> invoke_handler p ~attempt:1)
              (List.mapi (fun i p -> (i, p)) items)
          else fun _ fallback -> fallback ()
        in
        List.iteri (fun i p -> supervise p ~speculated:(speculated i)) items
  in
  (* A line that never became an admitted request: typed error
     response, counted as [malformed], NOT as a request error — the
     accounting contract equates [admitted] with terminal responses
     of admitted requests only. *)
  let bad_line ~id detail =
    incr malformed;
    Obs.Metrics.incr m_malformed;
    Obs.Span.instant ~cat:"serve" ~args:[ ("id", id) ] "malformed";
    emit (Protocol.render (Protocol.error ~id detail))
  in
  let serve_stats ~id ~full =
    incr stats_served;
    let counters =
      [ ("queue", Json.Int (Admission.depth queue));
        ("capacity", Json.Int (Admission.capacity queue));
        ("vt", Json.Int !vt);
        ("admitted", Json.Int (Admission.admitted queue));
        ("shed", Json.Int (Admission.shed queue));
        ("completed", Json.Int !completed);
        ("errors", Json.Int !errors);
        ("deadline", Json.Int !deadlined);
        ("quarantined", Json.Int !quarantined);
        ("malformed", Json.Int !malformed);
        ("batches", Json.Int !batches);
        ("breakers",
         Json.Obj
           (List.map
              (fun b ->
                 (R.Breaker.resource b,
                  Json.Str (R.Breaker.state_to_string (R.Breaker.state b))))
              (R.Breaker.all breakers))) ]
    in
    let body =
      if not full then counters
      else
        (* the full metrics snapshot may embed scheduling-dependent
           gauge high-water marks; byte-compare scripts use the
           deterministic counters above instead *)
        counters @ [ ("metrics", Obs.Metrics.to_json (Obs.Metrics.snapshot ())) ]
    in
    emit
      (Protocol.render
         { Protocol.id; status = Protocol.Ok_; latency = None; attempts = None;
           body = [ ("stats", Json.Obj body) ] })
  in
  let drained = ref false in
  let rec loop () =
    match source () with
    | None ->
        process_batch ();
        drained := true
    | Some raw ->
        incr line_no;
        let line =
          (* tolerate CRLF framing *)
          let n = String.length raw in
          if n > 0 && raw.[n - 1] = '\r' then String.sub raw 0 (n - 1) else raw
        in
        let line_id = Printf.sprintf "line:%d" !line_no in
        if line = "" || (String.length line > 0 && line.[0] = '#') then loop ()
        else if String.length line > config.max_line then begin
          bad_line ~id:line_id
            (Printf.sprintf "oversized request: %d bytes > max %d"
               (String.length line) config.max_line);
          loop ()
        end
        else
          match Protocol.parse ~line_id line with
          | Error detail ->
              bad_line ~id:line_id detail;
              loop ()
          | Ok (Protocol.Stats { id; full }) ->
              serve_stats ~id ~full;
              loop ()
          | Ok Protocol.Flush ->
              process_batch ();
              loop ()
          | Ok Protocol.Shutdown ->
              process_batch ();
              drained := true
          | Ok (Protocol.Work { id; fuel; work }) ->
              incr vt;
              let p =
                { p_id = id; p_work = work;
                  p_fuel = Option.value ~default:config.default_fuel fuel;
                  p_arrived = !vt }
              in
              (match Admission.admit queue p with
               | `Admitted -> Obs.Metrics.incr m_admitted
               | `Shed ->
                   Obs.Metrics.incr m_shed;
                   Obs.Span.instant ~cat:"serve"
                     ~args:[ ("id", id) ] "overloaded";
                   emit
                     (Protocol.render
                        (Protocol.overloaded ~id
                           ~depth:(Admission.depth queue)
                           ~capacity:(Admission.capacity queue))));
              loop ()
  in
  loop ();
  Obs.Metrics.add m_quarantined !quarantined;
  let summary =
    { admitted = Admission.admitted queue;
      shed = Admission.shed queue;
      completed = !completed;
      errors = !errors;
      deadlined = !deadlined;
      quarantined = !quarantined;
      malformed = !malformed;
      stats_served = !stats_served;
      batches = !batches;
      vt = !vt;
      drained = !drained;
      latencies = List.rev !rev_latencies;
      report =
        { R.Run_report.label = "serve";
          seed = config.retry.R.Retry.seed;
          items = List.rev !rev_report_items;
          waited = !waited;
          journal_skipped = 0 };
      store =
        (match (store_at_start, Store.Handle.get ()) with
        | Some before, Some _ ->
            Some (Store.Disk.sub_stats (Store.Disk.stats ()) before)
        | _ -> None);
      store_degraded = !store_degraded }
  in
  emit (Json.to_string (summary_to_json summary));
  summary

let run_script ?config lines =
  let remaining = ref lines in
  let source () =
    match !remaining with
    | [] -> None
    | l :: rest ->
        remaining := rest;
        Some l
  in
  let rev_out = ref [] in
  let emit line = rev_out := line :: !rev_out in
  let summary = run ?config ~emit source in
  (List.rev !rev_out, summary)
