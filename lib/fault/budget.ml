type t = { mutable remaining : int option; mutable used : int }

let unlimited () = { remaining = None; used = 0 }

let of_fuel n = { remaining = Some (max 0 n); used = 0 }

let take t =
  match t.remaining with
  | None ->
      t.used <- t.used + 1;
      true
  | Some 0 -> false
  | Some n ->
      t.remaining <- Some (n - 1);
      t.used <- t.used + 1;
      true

let used t = t.used

let exhausted t = t.remaining = Some 0

type coverage = Complete | Partial of { covered : int; total : int }

let coverage ~covered ~total =
  if covered >= total then Complete else Partial { covered; total }

let complete = function Complete -> true | Partial _ -> false
