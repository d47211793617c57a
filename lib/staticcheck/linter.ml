module A = Minic.Ast

type report = {
  func : A.func;
  findings : Finding.t list;
  nodes : int;
  edges : int;
  back_edges : int;
  loop_iterations : int;
  widenings : int;
}

let m_functions = Obs.Metrics.counter "staticcheck.functions"
let m_findings = Obs.Metrics.counter "staticcheck.findings"

let lint ?(config = Absint.default_config) (f : A.func) =
  Obs.Span.with_span ~cat:"staticcheck" ~args:[ ("func", f.A.name) ]
    ("lint:" ^ f.A.name)
  @@ fun () ->
  Obs.Metrics.incr m_functions;
  let result = Absint.analyze ~config f in
  let cfg = result.Absint.cfg in
  let findings =
    List.map (Validate.finding ~config ~cfg f) result.Absint.raws
  in
  Obs.Metrics.add m_findings (List.length findings);
  { func = f;
    findings;
    nodes = Cfg.node_count cfg;
    edges = Cfg.edge_count cfg;
    back_edges = Cfg.back_edge_count cfg;
    loop_iterations = result.Absint.loop_iterations;
    widenings = result.Absint.widenings }

(* functions lint independently; ordered Par reduction keeps the
   report list identical to the sequential one *)
let lint_program ?config fs = Par.map_list (fun f -> lint ?config f) fs

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s: %d finding%s  (cfg %d nodes / %d edges, %d \
                      back-edge%s, %d loop iteration%s, %d widening%s)"
    r.func.A.name (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    r.nodes r.edges r.back_edges
    (if r.back_edges = 1 then "" else "s")
    r.loop_iterations
    (if r.loop_iterations = 1 then "" else "s")
    r.widenings
    (if r.widenings = 1 then "" else "s");
  List.iter (fun f -> Format.fprintf ppf "@,%a" Finding.pp f) r.findings;
  Format.fprintf ppf "@]"

let report_to_json r =
  Json.(
    Obj
      [ ("func", Str r.func.A.name); ("nodes", Int r.nodes); ("edges", Int r.edges);
        ("back_edges", Int r.back_edges); ("loop_iterations", Int r.loop_iterations);
        ("widenings", Int r.widenings);
        ("findings", List (List.map Finding.to_json r.findings)) ])

(* ---- corpus sweep -------------------------------------------------- *)

type expectation = Flagged of string list | Clean

type sweep_row = {
  label : string;
  expected : expectation;
  report : report;
  ok : bool;
}

(* Ground truth per corpus label (see Minic.Corpus.all). *)
let expectations =
  [ ("tTflag (vulnerable)",
     Flagged [ "array-store-oob-low"; "atoi-wrap-index" ]);
    ("tTflag (fixed)", Clean);
    ("Log (vulnerable)", Flagged [ "strcpy-unbounded" ]);
    ("Log (fixed)", Clean);
    ("Log (off-by-one fix)", Flagged [ "strcpy-off-by-one" ]);
    ("ReadPOSTData (|| loop, #6255)", Flagged [ "recv-overflow" ]);
    ("ReadPOSTData (&& fix)", Clean) ]

module String_set = Set.Make (String)

let row_ok expected (r : report) =
  match expected with
  | Clean -> r.findings = []
  | Flagged kinds ->
      let names =
        String_set.of_list
          (List.map (fun f -> Finding.kind_name f.Finding.kind) r.findings)
      in
      r.findings <> []
      && List.for_all Finding.is_confirmed r.findings
      && List.for_all (fun k -> String_set.mem k names) kinds

let corpus_config =
  { Absint.default_config with Absint.arrays = Minic.Corpus.tTflag_arrays }

(* Persistent row cache: a variant's report is a pure function of
   (label, function, config), so its digest keys the report in the
   ambient store.  Expectations are re-evaluated against the cached
   report — only the analysis itself is persisted, so editing the
   ground truth never serves a stale verdict. *)
let store_tag = "lint-report"

let report_key ~config label f =
  Digest.to_hex
    (Digest.string (Marshal.to_string (label, f, config) [ Marshal.Closures ]))

let lint_cached ~config label f =
  Store.Handle.cached ~tag:store_tag ~key:(report_key ~config label f)
    (fun () -> lint ~config f)

let lint_row ~config (label, f) =
  let expected =
    match List.assoc_opt label expectations with
    | Some e -> e
    | None -> Clean
  in
  let report = lint_cached ~config label f in
  { label; expected; report; ok = row_ok expected report }

(* Each corpus variant lints independently; the Par map keeps row
   order, so the sweep is byte-identical to the sequential one.  Under
   an active fault plan the serial guard drops to sequential, keeping
   the injector's event stream intact. *)
let corpus_sweep () =
  Par.map_list ~label:"lint.corpus"
    (fun item -> lint_row ~config:corpus_config item)
    Minic.Corpus.all

let sweep_ok rows = List.for_all (fun r -> r.ok) rows

(* Supervised sweep: one work item per corpus variant.  The analyzer
   draws its workspace from the simulated heap, so allocation-failure
   plans perturb the sweep itself — a denied arena is a transient
   {!Fault.Condition.Heap_exhausted} the supervisor retries. *)
let arena_bytes = 4096

let sweep_item ~config (label, f) =
  { Resilience.Supervisor.id = label;
    resource = "lint";
    work =
      (fun () ->
         if Fault.Hooks.heap_alloc_fails ~requested:arena_bytes then
           Fault.Condition.fail
             (Fault.Condition.Heap_exhausted { requested = arena_bytes });
         lint_row ~config (label, f)) }

let supervised_sweep ?(config = corpus_config) ?supervise ?checkpoint
    ?stop_after ?parallel () =
  let outcome =
    Resilience.Supervisor.run ~label:"lint-sweep" ?config:supervise ?checkpoint
      ?stop_after ?parallel
      (List.map (sweep_item ~config) Minic.Corpus.all)
  in
  (List.map snd outcome.Resilience.Supervisor.results,
   outcome.Resilience.Supervisor.report)

let expectation_to_string = function
  | Clean -> "clean"
  | Flagged kinds -> "flagged: " ^ String.concat ", " kinds

let pp_sweep ppf rows =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun row ->
       Format.fprintf ppf "[%s] %-30s expected %s@,  %a@,"
         (if row.ok then "ok" else "FAIL")
         row.label
         (expectation_to_string row.expected)
         pp_report row.report)
    rows;
  Format.fprintf ppf "sweep: %s@]"
    (if sweep_ok rows then "all expectations met"
     else "EXPECTATION MISMATCH")

let sweep_to_json rows =
  let row r =
    Json.(
      Obj
        [ ("label", Str r.label); ("expected", Str (expectation_to_string r.expected));
          ("ok", Bool r.ok); ("report", report_to_json r.report) ])
  in
  Json.(Obj [ ("ok", Bool (sweep_ok rows)); ("rows", List (List.map row rows)) ])
