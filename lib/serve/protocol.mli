(** The serve wire protocol: JSONL request/response framing.

    One JSON object per line in each direction.  Every request
    carries a [kind] and an optional [id] (defaulted to ["line:N"]
    from the 1-based input line number, which is also the fallback
    id for lines that do not parse).  Work requests — [lint],
    [analyze], [exploit], [chaos], [boom] — enter the admission
    queue; control requests act immediately: [stats] is answered
    out-of-band even when the queue is full, [flush] is the
    scheduling tick that drains the queue onto the pool, [shutdown]
    begins the graceful drain.

    Every admitted work request receives exactly one response whose
    [status] is one of [ok] / [error] / [deadline] / [quarantined];
    a request shed at admission receives [overloaded]; an
    unparseable or oversized line receives [error].  The response
    stream for a given request script and seed is byte-identical at
    every [-j]. *)

type work =
  | Lint of { target : string }
      (** a {!Minic.Corpus} variant name, or ["corpus"] for the
          whole sweep *)
  | Analyze of { app : string }
  | Exploit of { app : string }
  | Chaos of { plan : string }
      (** a {!Fault.Catalog.all} plan name (the handler rejects a
          {!Fault.Catalog.disk} one) *)
  | Boom of { mode : string; times : int }
      (** testing aid: [crash] raises, [reject] raises
          {!Resilience.Quarantine.Reject}, [fault] hits a simulated
          transient fault on the first [times] attempts *)

val work_class : work -> string
(** The request class — the circuit-breaker resource: ["lint"],
    ["analyze"], ["exploit"], ["chaos"] or ["boom"]. *)

type request =
  | Work of { id : string; fuel : int option; work : work }
  | Stats of { id : string; full : bool }
      (** [full] additionally embeds the {!Obs.Metrics} snapshot
          (whose gauge high-water marks may depend on scheduling, so
          byte-compare scripts leave it off) *)
  | Flush
  | Shutdown

val parse : line_id:string -> string -> (request, string) result
(** Parse one request line; [line_id] is the fallback id.  [Error]
    carries a human-readable reason: unknown kind, missing field, a
    present field of the wrong type (named, as in [field "app" must be
    a string]), or a {!Json.error} — JSON syntax, invalid UTF-8, an
    unpaired surrogate. *)

type status = Ok_ | Error_ | Deadline | Quarantined | Overloaded

val status_to_string : status -> string

type response = {
  id : string;
  status : status;
  latency : int option;  (** virtual time from admission to completion *)
  attempts : int option;
  body : (string * Json.t) list;  (** status-specific payload fields *)
}

val ok : id:string -> latency:int -> attempts:int -> Json.t -> response

val error : id:string -> ?attempts:int -> string -> response

val deadline : id:string -> ?attempts:int -> spent:int -> unit -> response

val quarantined :
  id:string -> attempts:int -> Resilience.Quarantine.cause -> response

val overloaded : id:string -> depth:int -> capacity:int -> response

val render : response -> string
(** The response as one JSONL line (no trailing newline). *)
