type state = Closed | Open | Half_open

type config = { failure_threshold : int; cooldown : int }

let default_config = { failure_threshold = 3; cooldown = 200 }

type trip = {
  resource : string;
  at : int;
  consecutive_failures : int;
  cause : string;
}

type t = {
  resource : string;
  config : config;
  mutable state : state;
  mutable consecutive : int;
  mutable opened_at : int;
  mutable trip_count : int;
  mutable last_trip : trip option;
  mutable rev_edges : (state * state) list;  (* distinct, at most six *)
}

let create ?(config = default_config) ~resource () =
  if config.failure_threshold < 1 then
    invalid_arg "Breaker.create: failure_threshold < 1";
  { resource;
    config;
    state = Closed;
    consecutive = 0;
    opened_at = 0;
    trip_count = 0;
    last_trip = None;
    rev_edges = [] }

let resource t = t.resource

let state t = t.state

let trip_count t = t.trip_count

let last_trip t = t.last_trip

let edges t = List.rev t.rev_edges

let m_transitions = Obs.Metrics.counter "resilience.breaker.transitions"
let m_trips = Obs.Metrics.counter "resilience.breaker.trips"

let state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

let goto t s =
  if t.state <> s then begin
    if not (List.mem (t.state, s) t.rev_edges) then
      t.rev_edges <- (t.state, s) :: t.rev_edges;
    Obs.Metrics.incr m_transitions;
    Obs.Span.instant ~cat:"resilience"
      ~args:
        [ ("resource", t.resource);
          ("from", state_to_string t.state);
          ("to", state_to_string s) ]
      "breaker";
    t.state <- s
  end

let trip t ~now ~cause =
  Obs.Metrics.incr m_trips;
  t.trip_count <- t.trip_count + 1;
  t.last_trip <-
    Some { resource = t.resource; at = now; consecutive_failures = t.consecutive; cause };
  t.opened_at <- now;
  goto t Open

let acquire t ~now =
  match t.state with
  | Closed | Half_open -> true
  | Open ->
      if now - t.opened_at >= t.config.cooldown then begin
        goto t Half_open;
        true
      end
      else false

let success t =
  (* Open -> Closed must pass Half_open even if a caller bypassed
     [acquire]; the invariant holds against API misuse. *)
  if t.state = Open then goto t Half_open;
  t.consecutive <- 0;
  goto t Closed

let failure t ~now ~cause =
  t.consecutive <- t.consecutive + 1;
  match t.state with
  | Half_open -> trip t ~now ~cause
  | Closed ->
      if t.consecutive >= t.config.failure_threshold then trip t ~now ~cause
  | Open -> ()

type table = {
  table_config : config;
  by_resource : (string, t) Hashtbl.t;
  mutable rev_created : t list;
}

let table config =
  { table_config = config; by_resource = Hashtbl.create 7; rev_created = [] }

let lookup tbl resource =
  match Hashtbl.find_opt tbl.by_resource resource with
  | Some b -> b
  | None ->
      let b = create ~config:tbl.table_config ~resource () in
      Hashtbl.add tbl.by_resource resource b;
      tbl.rev_created <- b :: tbl.rev_created;
      b

let all tbl = List.rev tbl.rev_created

let pp ppf t =
  Format.fprintf ppf "%s: %s (%d consecutive failure%s, %d trip%s)" t.resource
    (state_to_string t.state) t.consecutive
    (if t.consecutive = 1 then "" else "s")
    t.trip_count
    (if t.trip_count = 1 then "" else "s")
