type config = { retry : Retry.policy; breaker : Breaker.config }

let default_config = { retry = Retry.default; breaker = Breaker.default_config }

type 'a item = { id : string; resource : string; work : unit -> 'a }

type 'a outcome = {
  report : Run_report.t;
  results : (string * 'a) list;
  breakers : Breaker.t list;
}

(* Mix the item id into the policy seed so each item owns its backoff
   schedule: outcomes stay identical whether or not earlier items were
   satisfied from a checkpoint. *)
let item_policy (config : config) id =
  { config.retry with Retry.seed = config.retry.seed lxor Hashtbl.hash id }

let speculate ~label f keyed =
  let slots = Hashtbl.create 16 in
  Par.map_list ~label
    (fun (i, x) -> (i, match f x with v -> Ok v | exception e -> Error e))
    keyed
  |> List.iter (fun (i, r) -> Hashtbl.replace slots i r);
  fun i fallback ->
    match Hashtbl.find_opt slots i with
    | None -> fallback ()
    | Some r -> (
        Hashtbl.remove slots i;
        match r with Ok v -> v | Error e -> raise e)

let run ?(label = "supervised") ?(config = default_config) ?checkpoint
    ?stop_after items =
  Obs.Span.with_span ~cat:"resilience"
    ~args:[ ("label", label); ("items", string_of_int (List.length items)) ]
    ("supervise:" ^ label)
  @@ fun () ->
  let checkpointed it =
    match checkpoint with Some cp -> Checkpoint.seen cp it.id | None -> false
  in
  let item_span it =
    Obs.Span.with_span ~cat:"resilience"
      ~args:[ ("id", it.id); ("resource", it.resource) ]
      ("item:" ^ it.id) it.work
  in
  (* Parallelism by speculation: first invocations of the fresh items
     run on the Par pool up front, then the supervision loop replays
     sequentially, consuming each speculative result at the item's
     first invocation.  The replay owns every piece of shared state —
     virtual clock, breakers, checkpoint journal — so accounting is
     exactly-once and the report is byte-identical to the sequential
     run.  Invocation counts align too: speculation is call #1 and the
     replay's own calls continue at #2, so items whose outcome depends
     on how often they ran (fail-twice-then-succeed fakes) still report
     identically.  Requires only that distinct items do not share
     mutable state.  Speculation is skipped under [stop_after] (items
     past the kill must never execute) and under an active fault
     injector (its PRNG stream is order-sensitive).  It is NOT skipped
     at [-j 1]: the Par map then runs sequentially with identical
     outcomes, which keeps the item spans of a traced run at the same
     (epoch, slot) coordinates for every job count. *)
  let invoke =
    if stop_after = None && Fault.Hooks.current () = None then
      speculate ~label:(label ^ ".speculate") item_span
        (List.mapi (fun i it -> (i, it)) items
         |> List.filter (fun (_, it) -> not (checkpointed it)))
    else fun _ fallback -> fallback ()
  in
  let breakers = Breaker.table config.breaker in
  let clock = ref 0 in
  let waited = ref 0 in
  let executed = ref 0 in
  let rev_results = ref [] in
  let rev_items = ref [] in
  let emit id outcome ~from_checkpoint =
    rev_items := { Run_report.id; outcome; from_checkpoint } :: !rev_items
  in
  let supervise i it =
    incr executed;
    let on_backoff ~attempt:_ ~delay =
      waited := !waited + delay;
      Obs.Span.instant ~cat:"resilience"
        ~args:
          [ ("id", it.id);
            ("delay", string_of_int delay);
            ("vt", string_of_int !clock);
            ("fuel_used", string_of_int (!clock - delay)) ]
        "backoff"
    in
    match
      Retry.run
        ~breaker:(Breaker.lookup breakers it.resource)
        ~clock ~on_backoff (item_policy config it.id)
        (fun ~attempt:_ -> invoke i (fun () -> item_span it))
    with
    | Ok (v, attempts) ->
        Option.iter
          (fun cp -> Checkpoint.mark cp ~id:it.id ~attempts)
          checkpoint;
        rev_results := (it.id, v) :: !rev_results;
        emit it.id (Run_report.Completed { attempts }) ~from_checkpoint:false
    | Error (cause, attempts) ->
        Quarantine.isolate ~id:it.id ~attempts;
        emit it.id (Run_report.Quarantined { attempts; cause })
          ~from_checkpoint:false
  in
  let killed () =
    match stop_after with Some n -> !executed >= n | None -> false
  in
  let rec sweep i = function
    | it :: rest when not (killed ()) ->
        (match checkpoint with
         | Some cp when Checkpoint.seen cp it.id ->
             let attempts =
               Option.value ~default:1 (Checkpoint.attempts cp it.id)
             in
             emit it.id (Run_report.Completed { attempts })
               ~from_checkpoint:true
         | _ -> supervise i it);
        sweep (i + 1) rest
    | _ -> ()  (* done, or the "kill" arrived *)
  in
  sweep 0 items;
  Option.iter Checkpoint.finalize checkpoint;
  { report =
      { Run_report.label;
        seed = config.retry.Retry.seed;
        items = List.rev !rev_items;
        waited = !waited;
        journal_skipped =
          (match checkpoint with
           | Some cp -> Checkpoint.skipped cp
           | None -> 0) };
    results = List.rev !rev_results;
    breakers = Breaker.all breakers }
