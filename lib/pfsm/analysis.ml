type pfsm_finding = {
  operation : string;
  pfsm : Primitive.t;
  missing_check : bool;
  hidden_hits : int;
  example : Env.t option;
}

type report = {
  model : Model.t;
  scenarios_run : int;
  traces : (Env.t * Trace.t) list;
  findings : pfsm_finding list;
}

(* ---- digest-keyed trace memo --------------------------------------
   Key = model digest x scenario digest, each the MD5 of the marshal
   image (closures included).  Sound because [Model.run] is pure —
   predicates, actions and effects are arithmetic over the env, with
   no fault-seam calls — so equal inputs always yield the equal trace,
   installed injector or not.  A model's builder fixes the sharing in
   its marshal image, so two fresh builds of one model collide on the
   same key (test_obs's model-digest test checks every application).
   [analyze] digests its model once per call and reuses that digest
   for every scenario; [run_memo] digests its model on each call.

   The cache is compute-once: the first caller of a key publishes a
   [Computing] marker and evaluates outside the lock; concurrent
   callers of the same key block on the condvar instead of recomputing.
   That keeps the [pfsm.memo.*] counters deterministic under any
   scheduling: [misses] = distinct keys, [hits] = lookups − misses. *)

type memo_stats = { lookups : int; hits : int; misses : int }

type memo_cell = Computing | Done of Trace.t

let memo_lock = Mutex.create ()
let memo_cond = Condition.create ()
let memo_table : (string, memo_cell) Hashtbl.t = Hashtbl.create 512

let analyze_allocs = Obs.Allocs.scope "pfsm.analyze"

let m_lookups = Obs.Metrics.counter "pfsm.memo.lookups"
let m_hits = Obs.Metrics.counter "pfsm.memo.hits"
let m_misses = Obs.Metrics.counter "pfsm.memo.misses"

let digest v = Digest.string (Marshal.to_string v [ Marshal.Closures ])

(* Persistent tier: when the CLI has installed an ambient store, an
   in-memory miss consults it before computing and a computed trace is
   written back.  Both directions degrade silently to compute — a
   corrupt or stale record reads as a miss (evicted and counted by the
   store), a failed write leaves the run on the in-memory tier. *)
let store_tag = "pfsm-trace"

let memo_stats () =
  let v = Obs.Metrics.counter_value in
  { lookups = v m_lookups; hits = v m_hits; misses = v m_misses }

let memo_reset () =
  Mutex.lock memo_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock memo_lock)
    (fun () -> Hashtbl.reset memo_table)

(* [md] is [digest model] *)
let run_digested model md ~env =
  let ed = digest env in
  (* in-memory key is the raw 32 bytes; the persistent key is its hex
     spelling (store keys must be lowercase hex) *)
  let key = md ^ ed and key_hex = Digest.to_hex md ^ Digest.to_hex ed in
  Mutex.lock memo_lock;
  Obs.Metrics.incr m_lookups;
  let rec acquire () =
    match Hashtbl.find_opt memo_table key with
    | Some (Done trace) ->
        Obs.Metrics.incr m_hits;
        Mutex.unlock memo_lock;
        trace
    | Some Computing ->
        Condition.wait memo_cond memo_lock;
        acquire ()
    | None -> (
        Obs.Metrics.incr m_misses;
        Hashtbl.replace memo_table key Computing;
        Mutex.unlock memo_lock;
        match
          Store.Handle.cached ~tag:store_tag ~key:key_hex (fun () ->
              Model.run model ~env)
        with
        | trace ->
            Mutex.lock memo_lock;
            Hashtbl.replace memo_table key (Done trace);
            Condition.broadcast memo_cond;
            Mutex.unlock memo_lock;
            trace
        | exception e ->
            Mutex.lock memo_lock;
            Hashtbl.remove memo_table key;
            Condition.broadcast memo_cond;
            Mutex.unlock memo_lock;
            raise e)
  in
  acquire ()

let run_memo model ~env = run_digested model (digest model) ~env

let analyze ?(par = false) ?memo model ~scenarios =
  (* when the CLI installed a persistent store, memoize by default so
     every analysis routes through it; memoization never changes the
     report, only where traces come from *)
  let memo =
    match memo with Some m -> m | None -> Store.Handle.get () <> None
  in
  Obs.Span.with_span ~cat:"pfsm"
    ~args:[ ("scenarios", string_of_int (List.length scenarios)) ]
    "pfsm.analyze"
  @@ fun () ->
  Obs.Allocs.measure analyze_allocs @@ fun () ->
  let run = if memo then run_digested model (digest model) else Model.run model in
  let trace_of env = (env, run ~env) in
  let traces =
    if par then Par.map_list trace_of scenarios
    else List.map trace_of scenarios
  in
  let finding_of (op_name, pfsm) =
    let hits =
      List.filter_map
        (fun (env, trace) ->
           let hit s =
             s.Trace.operation = op_name
             && s.Trace.pfsm.Primitive.name = pfsm.Primitive.name
             && s.Trace.verdict.Primitive.hidden
           in
           if List.exists hit trace.Trace.steps then Some env else None)
        traces
    in
    { operation = op_name;
      pfsm;
      missing_check = Primitive.missing_check pfsm;
      hidden_hits = List.length hits;
      example = (match hits with [] -> None | env :: _ -> Some env) }
  in
  { model;
    scenarios_run = List.length scenarios;
    traces;
    findings = List.map finding_of (Model.all_pfsms model) }

let exploited report =
  List.filter (fun (_, trace) -> Trace.exploited trace) report.traces

let vulnerable_pfsms report = List.filter (fun f -> f.hidden_hits > 0) report.findings

module String_set = Set.Make (String)

let vulnerable_operations report =
  (* one set fold instead of re-sorting the whole operation list; the
     rendering contract (ascending, unique) is unchanged *)
  List.fold_left
    (fun acc f -> String_set.add f.operation acc)
    String_set.empty (vulnerable_pfsms report)
  |> String_set.elements

let taxonomy_matrix model =
  let pfsms = Model.all_pfsms model in
  let bucket kind =
    (kind,
     List.filter (fun (_, p) -> Taxonomy.equal p.Primitive.kind kind) pfsms)
  in
  List.map bucket Taxonomy.all

let security_checks report =
  List.map (fun f -> (f.operation, f.pfsm)) (vulnerable_pfsms report)
