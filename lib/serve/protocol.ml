type work =
  | Lint of { target : string }
  | Analyze of { app : string }
  | Exploit of { app : string }
  | Chaos of { plan : string }
  | Boom of { mode : string; times : int }

let work_class = function
  | Lint _ -> "lint"
  | Analyze _ -> "analyze"
  | Exploit _ -> "exploit"
  | Chaos _ -> "chaos"
  | Boom _ -> "boom"

type request =
  | Work of { id : string; fuel : int option; work : work }
  | Stats of { id : string; full : bool }
  | Flush
  | Shutdown

let parse ~line_id line =
  match Json.parse line with
  | Error e -> Error ("bad JSON: " ^ Json.error_to_string e)
  | Ok json -> (
      let ( let* ) = Result.bind in
      (* an absent field is [None]; a present one of the wrong type is
         an error that names it *)
      let field kind get name =
        match Json.mem name json with
        | None -> Ok None
        | Some v -> (
            match get v with
            | Some x -> Ok (Some x)
            | None -> Error (Printf.sprintf "field %S must be %s" name kind))
      in
      let str = field "a string" Json.str and int = field "an integer" Json.int in
      let required name k =
        let* v = str name in
        match v with
        | Some v -> k v
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      required "kind" @@ fun kind ->
      let* id = Result.map (Option.value ~default:line_id) (str "id") in
      let work w =
        let* fuel = int "fuel" in
        Ok (Work { id; fuel; work = w })
      in
      match kind with
      | "lint" -> required "target" (fun target -> work (Lint { target }))
      | "analyze" -> required "app" (fun app -> work (Analyze { app }))
      | "exploit" -> required "app" (fun app -> work (Exploit { app }))
      | "chaos" -> required "plan" (fun plan -> work (Chaos { plan }))
      | "boom" ->
          let* mode = str "mode" in
          let* times = int "times" in
          work
            (Boom
               { mode = Option.value ~default:"crash" mode;
                 times = Option.value ~default:max_int times })
      | "stats" ->
          let* full = field "a boolean" Json.bool "full" in
          Ok (Stats { id; full = Option.value ~default:false full })
      | "flush" -> Ok Flush
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "unknown kind %S" other))

type status = Ok_ | Error_ | Deadline | Quarantined | Overloaded

let status_to_string = function
  | Ok_ -> "ok"
  | Error_ -> "error"
  | Deadline -> "deadline"
  | Quarantined -> "quarantined"
  | Overloaded -> "overloaded"

type response = {
  id : string;
  status : status;
  latency : int option;
  attempts : int option;
  body : (string * Json.t) list;
}

let ok ~id ~latency ~attempts result =
  { id; status = Ok_; latency = Some latency; attempts = Some attempts;
    body = [ ("result", result) ] }

let error ~id ?attempts detail =
  { id; status = Error_; latency = None; attempts;
    body = [ ("detail", Json.Str detail) ] }

let deadline ~id ?attempts ~spent () =
  { id; status = Deadline; latency = None; attempts;
    body = [ ("spent", Json.Int spent) ] }

let quarantined ~id ~attempts cause =
  { id; status = Quarantined; latency = None; attempts = Some attempts;
    body =
      [ ("cause", Json.Str (Resilience.Quarantine.cause_to_string cause)) ] }

let overloaded ~id ~depth ~capacity =
  { id; status = Overloaded; latency = None; attempts = None;
    body = [ ("queue", Json.Int depth); ("capacity", Json.Int capacity) ] }

let render r =
  let opt name = function
    | None -> []
    | Some n -> [ (name, Json.Int n) ]
  in
  Json.to_string
    (Json.Obj
       ([ ("id", Json.Str r.id);
          ("status", Json.Str (status_to_string r.status)) ]
        @ opt "latency" r.latency @ opt "attempts" r.attempts @ r.body))
