let reject fmt = Printf.ksprintf (fun s -> raise (Resilience.Quarantine.Reject s)) fmt

(* ---- the application registry ------------------------------------ *)

let find app =
  match Exploit.Table.find app with
  | Some t -> t
  | None -> reject "unknown application: %s" app

let model_of app = (find app).Exploit.Table.model ()

let scenarios_of app = (find app).Exploit.Table.scenarios ()

(* ---- fuel --------------------------------------------------------- *)

type outcome =
  | Done of Json.t
  | Deadline_hit of { spent : int }

exception Out_of_fuel

(* ---- the handlers ------------------------------------------------- *)

let lint_result ~target reports =
  let findings =
    List.concat_map (fun r -> r.Staticcheck.Linter.findings) reports
  in
  let confirmed = List.filter Staticcheck.Finding.is_confirmed findings in
  Json.Obj
    [ ("target", Json.Str target);
      ("functions", Json.Int (List.length reports));
      ("findings", Json.Int (List.length findings));
      ("confirmed", Json.Int (List.length confirmed)) ]

let lint ~spend target =
  let config = Staticcheck.Linter.corpus_config in
  match target with
  | "corpus" ->
      let reports =
        List.map
          (fun (label, func) ->
             spend 1;
             Staticcheck.Linter.lint_cached ~config label func)
          Minic.Corpus.all
      in
      lint_result ~target reports
  | name -> (
      match List.assoc_opt name Minic.Corpus.all with
      | None -> reject "unknown corpus variant: %s" name
      | Some func ->
          spend 1;
          lint_result ~target [ Staticcheck.Linter.lint_cached ~config name func ])

let analyze ~spend app =
  let model = model_of app in
  let scenarios = scenarios_of app in
  List.iter (fun _ -> spend 1) scenarios;
  let report = Pfsm.Analysis.analyze ~memo:true model ~scenarios in
  Json.Obj
    [ ("app", Json.Str app);
      ("scenarios", Json.Int report.Pfsm.Analysis.scenarios_run);
      ("hidden",
       Json.List
         (List.filter_map
            (fun (f : Pfsm.Analysis.pfsm_finding) ->
               if f.hidden_hits = 0 then None
               else
                 Some
                   (Json.Obj
                      [ ("operation", Json.Str f.operation);
                        ("hits", Json.Int f.hidden_hits) ]))
            report.Pfsm.Analysis.findings)) ]

let exploit ~spend app =
  let t = find app in
  spend 1;
  let rows = Exploit.Driver.rows ~before:(fun () -> spend 1) t in
  Json.Obj
    [ ("app", Json.Str app);
      ("rows", Json.Int (List.length rows));
      ("ok", Json.Bool (Exploit.Driver.rows_ok rows)) ]

(* Only the simulation plans: a disk plan perturbs [Store.Io], so run
   here it would tear the server's own store.  [chaos --disk] runs
   those on a scratch store. *)
let chaos ~spend plan_name =
  match Fault.Catalog.find plan_name with
  | None -> reject "unknown fault plan: %s" plan_name
  | Some plan when List.memq plan Fault.Catalog.disk ->
      reject "disk fault plan %s is not served: run it with chaos --disk" plan_name
  | Some plan ->
      let injector = Fault.Injector.create plan in
      let results =
        Fault.Hooks.with_injector injector (fun () ->
            List.map
              (fun (app, entries) ->
                 spend 1;
                 let entries = entries () in
                 (app,
                  List.length entries,
                  List.length
                    (List.filter
                       (fun (e : Exploit.Consistency.entry) -> e.consistent)
                       entries)))
              Exploit.Consistency.app_groups)
      in
      let entries = List.fold_left (fun acc (_, n, _) -> acc + n) 0 results in
      let consistent =
        List.fold_left (fun acc (_, _, k) -> acc + k) 0 results
      in
      Json.Obj
        [ ("plan", Json.Str plan_name);
          ("benign", Json.Bool plan.Fault.Plan.benign);
          ("groups", Json.Int (List.length results));
          ("entries", Json.Int entries);
          ("consistent", Json.Int consistent);
          ("events", Json.Int (Fault.Injector.event_count injector)) ]

let boom ~attempt ~spend mode times =
  spend 1;
  match mode with
  | "crash" -> failwith "boom: deliberate crash"
  | "reject" -> reject "boom: deliberate reject"
  | "fault" ->
      if attempt <= times then
        Fault.Condition.fail
          (Fault.Condition.Heap_exhausted { requested = attempt })
      else
        Json.Obj
          [ ("boom", Json.Str "survived"); ("attempt", Json.Int attempt) ]
  | other -> reject "unknown boom mode: %s" other

let memoizable : Protocol.work -> bool = function
  | Lint _ | Analyze _ | Exploit _ -> true
  | Chaos _ | Boom _ -> false

let run ~attempt ~fuel work =
  let d = Resilience.Deadline.of_fuel (max 1 fuel) in
  let spend n = if not (Resilience.Deadline.spend d n) then raise_notrace Out_of_fuel in
  match
    match (work : Protocol.work) with
    | Lint { target } -> lint ~spend target
    | Analyze { app } -> analyze ~spend app
    | Exploit { app } -> exploit ~spend app
    | Chaos { plan } -> chaos ~spend plan
    | Boom { mode; times } -> boom ~attempt ~spend mode times
  with
  | v -> (Done v, Resilience.Deadline.used d)
  | exception Out_of_fuel ->
      let spent = Resilience.Deadline.used d in
      (Deadline_hit { spent }, spent)

(* [run]'s deadline, for a handler that spends [units] one at a time:
   they all fit, or the first [max 1 fuel] do. *)
let replay ~fuel ~units payload =
  let fuel = max 1 fuel in
  if units <= fuel then (Done payload, units) else (Deadline_hit { spent = fuel }, fuel)
