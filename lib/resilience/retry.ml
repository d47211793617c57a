type policy = {
  max_attempts : int;
  base_delay : int;
  max_delay : int;
  jitter_percent : int;
  seed : int;
}

let default =
  { max_attempts = 5;
    base_delay = 50;
    max_delay = 400;
    jitter_percent = 25;
    seed = 20021130 }

let delays policy =
  let prng = Vulndb.Prng.create ~seed:policy.seed in
  List.init
    (max 0 (policy.max_attempts - 1))
    (fun k ->
       (* base * 2^k, saturating well before overflow *)
       let exp = if k > 20 then policy.max_delay else policy.base_delay * (1 lsl k) in
       let capped = max 0 (min policy.max_delay exp) in
       let jitter = capped * policy.jitter_percent / 100 in
       if jitter <= 0 then capped
       else capped - jitter + Vulndb.Prng.below prng ((2 * jitter) + 1))

type failure =
  | Refused of { resource : string }
  | Failed of Fault.Condition.t
  | Rejected of string
  | Crashed of string

type action = Backoff of int | Quarantine of Quarantine.cause

let step policy ~attempt failure =
  let retry_or cause =
    if attempt >= policy.max_attempts then Quarantine cause
    else Backoff (List.nth (delays policy) (attempt - 1))
  in
  match failure with
  | Refused { resource } -> retry_or (Quarantine.Breaker_open { resource })
  | Failed last ->
      retry_or (Quarantine.Retries_exhausted { attempts = attempt; last })
  | Rejected detail -> Quarantine (Quarantine.Rejected { detail })
  | Crashed exn -> Quarantine (Quarantine.Crash { exn })

let m_attempts = Obs.Metrics.counter "resilience.retry.attempts"

(* A failed attempt as [step] sees it, and as the breaker records it. *)
let failure_of_exn = function
  | Fault.Condition.Simulated c -> (Failed c, Fault.Condition.to_string c)
  | Quarantine.Reject detail -> (Rejected detail, detail)
  | e ->
      let exn = Printexc.to_string e in
      (Crashed exn, exn)

let run ~breaker ~clock ~on_backoff policy work =
  let rec attempt k =
    incr clock;
    let result =
      if not (Breaker.acquire breaker ~now:!clock) then
        Error (Refused { resource = Breaker.resource breaker })
      else
        match work ~attempt:k with
        | v ->
            Breaker.success breaker;
            Ok v
        | exception e ->
            let failure, cause = failure_of_exn e in
            Breaker.failure breaker ~now:!clock ~cause;
            Error failure
    in
    match result with
    | Ok v -> Ok (v, k)
    | Error failure -> (
        match step policy ~attempt:k failure with
        | Quarantine cause -> Error (cause, k)
        | Backoff delay ->
            clock := !clock + delay;
            Obs.Metrics.incr m_attempts;
            on_backoff ~attempt:k ~delay;
            attempt (k + 1))
  in
  attempt 1
