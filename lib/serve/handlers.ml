let reject fmt = Printf.ksprintf (fun s -> raise (Resilience.Quarantine.Reject s)) fmt

(* ---- the application registry ------------------------------------ *)

let apps = [ "sendmail"; "nullhttpd"; "xterm"; "rwall"; "iis"; "ghttpd"; "rpcstatd" ]

let model_of = function
  | "sendmail" -> Apps.Sendmail.model (Apps.Sendmail.setup ())
  | "nullhttpd" -> Apps.Nullhttpd.model (Apps.Nullhttpd.setup ())
  | "xterm" -> Apps.Xterm.model ()
  | "rwall" -> Apps.Rwall.model (Apps.Rwall.setup ())
  | "iis" -> Apps.Iis.model (Apps.Iis.setup ())
  | "ghttpd" -> Apps.Ghttpd.model (Apps.Ghttpd.setup ())
  | "rpcstatd" -> Apps.Rpc_statd.model (Apps.Rpc_statd.setup ())
  | other -> reject "unknown application: %s" other

let scenarios_of = function
  | "sendmail" ->
      let app = Apps.Sendmail.setup () in
      [ Apps.Sendmail.exploit_scenario app; Apps.Sendmail.benign_scenario ]
  | "nullhttpd" ->
      let app = Apps.Nullhttpd.setup () in
      let cl5774, body5774 = Exploit.Attack.nullhttpd_5774 app in
      let cl6255, body6255 = Exploit.Attack.nullhttpd_6255 app in
      [ Apps.Nullhttpd.scenario ~content_len:cl5774 ~body:body5774;
        Apps.Nullhttpd.scenario ~content_len:cl6255 ~body:body6255;
        Apps.Nullhttpd.benign_scenario ]
  | "xterm" -> [ Apps.Xterm.race_scenario; Apps.Xterm.benign_scenario ]
  | "rwall" -> [ Apps.Rwall.attack_scenario; Apps.Rwall.benign_scenario ]
  | "iis" ->
      [ Apps.Iis.scenario ~path:Exploit.Attack.iis_path;
        Apps.Iis.scenario ~path:Apps.Iis.benign_path ]
  | "ghttpd" ->
      let app = Apps.Ghttpd.setup () in
      [ Apps.Ghttpd.scenario ~request:(Exploit.Attack.ghttpd_request app);
        Apps.Ghttpd.benign_scenario ]
  | "rpcstatd" ->
      let app = Apps.Rpc_statd.setup () in
      [ Apps.Rpc_statd.scenario ~filename:(Exploit.Attack.rpc_statd_filename app);
        Apps.Rpc_statd.benign_scenario ]
  | other -> reject "unknown application: %s" other

(* Exploit.Driver groups are keyed by display name; requests use the
   CLI app names. *)
let row_group_of = function
  | "sendmail" -> "Sendmail #3163"
  | "nullhttpd" -> "NULL HTTPD"
  | "xterm" -> "xterm race"
  | "rwall" -> "Solaris rwall"
  | "iis" -> "IIS decode"
  | "ghttpd" -> "GHTTPD #5960"
  | "rpcstatd" -> "rpc.statd #1480"
  | other -> reject "unknown application: %s" other

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
  let group = row_group_of app in
  let rows_fn =
    match List.assoc_opt group Exploit.Driver.app_row_groups with
    | Some f -> f
    | None -> reject "unknown application: %s" app
  in
  spend 1;
  let rows = rows_fn () in
  List.iter (fun _ -> spend 1) rows;
  Json.Obj
    [ ("app", Json.Str app);
      ("rows", Json.Int (List.length rows));
      ("ok", Json.Bool (Exploit.Driver.rows_ok rows)) ]

let chaos ~spend plan_name =
  match Fault.Catalog.find plan_name with
  | None -> reject "unknown fault plan: %s" plan_name
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
