type cause =
  | Retries_exhausted of { attempts : int; last : Fault.Condition.t }
  | Breaker_open of { resource : string }
  | Deadline_exceeded of { spent : int }
  | Rejected of { detail : string }
  | Crash of { exn : string }

exception Reject of string

let cause_to_string = function
  | Retries_exhausted { attempts; last } ->
      Printf.sprintf "retries exhausted after %d attempt%s, last fault: %s"
        attempts (if attempts = 1 then "" else "s")
        (Fault.Condition.to_string last)
  | Breaker_open { resource } ->
      Printf.sprintf "circuit breaker open for resource %s" resource
  | Deadline_exceeded { spent } ->
      Printf.sprintf "deadline exceeded after %d fuel units" spent
  | Rejected { detail } -> Printf.sprintf "rejected: %s" detail
  | Crash { exn } -> Printf.sprintf "crash: %s" exn

let pp_cause ppf c = Format.pp_print_string ppf (cause_to_string c)

type 'a entry = { id : string; item : 'a; attempts : int; cause : cause }

type 'a t = { mutable rev_entries : 'a entry list }

let create () = { rev_entries = [] }

let m_isolated = Obs.Metrics.counter "resilience.quarantine.isolated"

let isolate t ~id ~item ~attempts cause =
  Obs.Metrics.incr m_isolated;
  Obs.Span.instant ~cat:"resilience"
    ~args:[ ("id", id); ("attempts", string_of_int attempts) ]
    "quarantine";
  t.rev_entries <- { id; item; attempts; cause } :: t.rev_entries

let entries t = List.rev t.rev_entries

let count t = List.length t.rev_entries

let find t id = List.find_opt (fun e -> e.id = id) (entries t)
