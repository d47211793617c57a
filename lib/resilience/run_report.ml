type outcome =
  | Completed of { attempts : int }
  | Quarantined of { attempts : int; cause : Quarantine.cause }

type item = { id : string; outcome : outcome; from_checkpoint : bool }

type t = {
  label : string;
  seed : int;
  items : item list;
  waited : int;
  journal_skipped : int;
}

let total t = List.length t.items

let count p t = List.length (List.filter p t.items)

let completed = count (fun i -> match i.outcome with Completed _ -> true | _ -> false)

let retried =
  count (fun i ->
      match i.outcome with Completed { attempts } -> attempts > 1 | _ -> false)

let resumed = count (fun i -> i.from_checkpoint)

let quarantined =
  count (fun i -> match i.outcome with Quarantined _ -> true | _ -> false)

let degraded t = quarantined t > 0

let ok t = not (degraded t)

let attempts_of = function
  | Completed { attempts } | Quarantined { attempts; _ } -> attempts

let max_attempts t =
  List.fold_left (fun acc i -> max acc (attempts_of i.outcome)) 0 t.items

let no_lost ~expected t = total t = expected

let same_outcomes a b =
  List.length a.items = List.length b.items
  && List.for_all2
       (fun x y -> x.id = y.id && x.outcome = y.outcome)
       a.items b.items

let pp_outcome ppf = function
  | Completed { attempts } when attempts <= 1 -> Format.fprintf ppf "completed"
  | Completed { attempts } ->
      Format.fprintf ppf "completed after %d attempts" attempts
  | Quarantined { attempts; cause } ->
      Format.fprintf ppf "QUARANTINED (attempts %d): %a" attempts
        Quarantine.pp_cause cause

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s: %d item%s, %d completed (%d retried, %d from checkpoint), %d \
     quarantined, waited %d"
    t.label (total t)
    (if total t = 1 then "" else "s")
    (completed t) (retried t) (resumed t) (quarantined t) t.waited;
  if t.journal_skipped > 0 then
    Format.fprintf ppf "@,  WARNING: %d unparseable journal line%s skipped"
      t.journal_skipped
      (if t.journal_skipped = 1 then "" else "s");
  List.iter
    (fun i ->
       Format.fprintf ppf "@,  %-34s %a%s" i.id pp_outcome i.outcome
         (if i.from_checkpoint then "  [checkpoint]" else ""))
    t.items;
  Format.fprintf ppf "@]"

let item_to_json i =
  let outcome, attempts, cause =
    match i.outcome with
    | Completed { attempts } -> ("completed", attempts, [])
    | Quarantined { attempts; cause } ->
        let cause = Json.Str (Quarantine.cause_to_string cause) in
        ("quarantined", attempts, [ ("cause", cause) ])
  in
  Json.(
    Obj
      ([ ("id", Str i.id); ("outcome", Str outcome); ("attempts", Int attempts) ]
       @ cause
       @ [ ("from_checkpoint", Bool i.from_checkpoint) ]))

let to_json t =
  Json.(
    Obj
      [ ("label", Str t.label); ("seed", Int t.seed); ("total", Int (total t));
        ("completed", Int (completed t)); ("retried", Int (retried t));
        ("resumed", Int (resumed t)); ("quarantined", Int (quarantined t));
        ("waited", Int t.waited); ("journal_skipped", Int t.journal_skipped);
        ("ok", Bool (ok t)); ("items", List (List.map item_to_json t.items)) ])
