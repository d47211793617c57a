module E = Osmodel.Effect
module Sched = Osmodel.Scheduler

let default_budget = 512

type status =
  | Confirmed of { schedule : string list; explored : int }
  | Refuted of { explored : int }
  | Unresolved of { explored : int; total : int }

type checked = { finding : Finding.t; status : status }

type instance_report = {
  instance : string;
  app : string;
  total : int;
  findings : checked list;
}

type report = {
  budget : int;
  por : bool;
  instances : instance_report list;
}

(* Both counters register on first use, so they only appear in the
   snapshots of runs that race-check.  Looking them up by name is
   domain-safe; a shared [lazy] forced by two pool workers at once
   raises [CamlinternalLazy.Undefined]. *)
let findings_counter () = Obs.Metrics.counter "racecheck.findings"

(* Shares the scheduler's counter by name (registration is
   idempotent): schedules the replay did not have to run relative to
   full enumeration of the instance. *)
let por_pruned () = Obs.Metrics.counter "scheduler.por_pruned"

(* Position of the (unique) label in a schedule. *)
let pos label sched =
  let rec go i = function
    | [] -> None
    | s :: rest ->
        if String.equal s.Sched.label label then Some i else go (i + 1) rest
  in
  go 0 sched

(* Restrict replay to schedules realising the flagged window: writer
   strictly between check and use.  The writer conflicts with both
   endpoints, so their relative order is invariant across a
   Mazurkiewicz trace — filtering partial-order-reduced
   representatives loses no windowed trace. *)
let in_window (f : Finding.t) sched =
  match (pos f.check sched, pos f.writer sched, pos f.use sched) with
  | Some c, Some w, Some u -> c < w && w < u
  | _ -> false

let confirm ~budget ~por ~init ~procs ~corrupted (f : Finding.t) =
  let independent = if por then Some E.independent else None in
  let total = Sched.interleaving_count_n (List.map List.length procs) in
  let schedules =
    Seq.filter (in_window f) (Sched.schedules_n ?independent procs)
  in
  let r =
    Sched.run_schedules ~budget:(Fault.Budget.of_fuel budget) ~init
      ~check:corrupted ~total schedules
  in
  if por && total < max_int && Fault.Budget.complete r.Sched.coverage then
    Obs.Metrics.add (por_pruned ()) (total - r.Sched.explored);
  match r.Sched.verdicts with
  | v :: _ ->
      Confirmed { schedule = v.Sched.schedule; explored = r.Sched.explored }
  | [] ->
      if Fault.Budget.complete r.Sched.coverage then
        Refuted { explored = r.Sched.explored }
      else Unresolved { explored = r.Sched.explored; total }

let analyze_instance ~budget ~por inst =
  match inst with
  | Instances.I { name; app; init; procs; corrupted } ->
      let findings = Detect.scan ~app procs in
      Obs.Metrics.add (findings_counter ()) (List.length findings);
      let total = Sched.interleaving_count_n (List.map List.length procs) in
      let findings =
        List.map
          (fun f ->
            { finding = f;
              status = confirm ~budget ~por ~init ~procs ~corrupted f })
          findings
      in
      { instance = name; app; total; findings }

let analyze ?(budget = default_budget) ?(por = false) ?app () =
  let instances = Instances.select ?app () in
  { budget; por;
    instances =
      Par.map_list ~label:"racecheck" (analyze_instance ~budget ~por) instances }

let confirmed report =
  List.exists
    (fun ir ->
      List.exists
        (fun c -> match c.status with Confirmed _ -> true | _ -> false)
        ir.findings)
    report.instances

(* ---- rendering ---------------------------------------------------- *)

let status_to_json status =
  Json.(
    match status with
    | Confirmed { schedule; explored } ->
        [ ("status", Str "confirmed"); ("explored", Int explored);
          ("schedule", List (List.map (fun l -> Str l) schedule)) ]
    | Refuted { explored } -> [ ("status", Str "refuted"); ("explored", Int explored) ]
    | Unresolved { explored; total } ->
        [ ("status", Str "unresolved"); ("explored", Int explored);
          ("total", Int total) ])

let checked_to_json { finding = f; status } =
  Json.(
    Obj
      ([ ("object", Str f.Finding.obj); ("check", Str f.Finding.check);
         ("use", Str f.Finding.use); ("writer", Str f.Finding.writer) ]
       @ status_to_json status))

let instance_to_json ir =
  Json.(
    Obj
      [ ("instance", Str ir.instance); ("app", Str ir.app);
        ("interleavings", Int ir.total);
        ("findings", List (List.map checked_to_json ir.findings)) ])

let to_json report =
  Json.(
    to_string ~layout:Compact
      (Obj
         [ ("budget", Int report.budget); ("por", Bool report.por);
           ("confirmed", Bool (confirmed report));
           ("instances", List (List.map instance_to_json report.instances)) ]))

let pp_status ppf = function
  | Confirmed { schedule; explored } ->
      Format.fprintf ppf "CONFIRMED after %d windowed schedule%s@," explored
        (if explored = 1 then "" else "s");
      Format.fprintf ppf "    witness: %s"
        (String.concat " ; " schedule)
  | Refuted { explored } ->
      Format.fprintf ppf
        "refuted: no windowed schedule corrupts state (%d replayed)" explored
  | Unresolved { explored; total } ->
      Format.fprintf ppf
        "UNRESOLVED: budget exhausted after %d of up to %d schedules" explored
        total

let pp ppf report =
  Format.fprintf ppf "@[<v>racecheck: budget=%d por=%b@," report.budget
    report.por;
  List.iter
    (fun ir ->
      Format.fprintf ppf "%s (%s, %d interleavings): %d finding%s@,"
        ir.instance ir.app ir.total
        (List.length ir.findings)
        (if List.length ir.findings = 1 then "" else "s");
      List.iter
        (fun c ->
          Format.fprintf ppf "  %s@,  - check:  %s@,  - use:    %s@,  - writer: %s@,  - %a@,"
            c.finding.Finding.obj c.finding.Finding.check
            c.finding.Finding.use c.finding.Finding.writer pp_status c.status)
        ir.findings)
    report.instances;
  Format.fprintf ppf "verdict: %s@]"
    (if confirmed report then "CONFIRMED race(s) present"
     else "no confirmed race")
