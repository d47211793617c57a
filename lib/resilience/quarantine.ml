type cause =
  | Retries_exhausted of { attempts : int; last : Fault.Condition.t }
  | Breaker_open of { resource : string }
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
  | Rejected { detail } -> Printf.sprintf "rejected: %s" detail
  | Crash { exn } -> Printf.sprintf "crash: %s" exn

let pp_cause ppf c = Format.pp_print_string ppf (cause_to_string c)

let m_isolated = Obs.Metrics.counter "resilience.quarantine.isolated"

let isolate ~id ~attempts =
  Obs.Metrics.incr m_isolated;
  Obs.Span.instant ~cat:"resilience"
    ~args:[ ("id", id); ("attempts", string_of_int attempts) ]
    "quarantine"
