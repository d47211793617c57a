type candidate = { env : Env.t; obj : Value.t }

let candidate ?(env = Env.empty) obj = { env; obj }

let verdicts pfsm c =
  let spec = Predicate.holds_safely ~env:c.env ~self:c.obj pfsm.Primitive.spec in
  let impl = Predicate.holds_safely ~env:c.env ~self:c.obj pfsm.Primitive.impl in
  match spec, impl with
  | Some s, Some i -> Some (s, i)
  | None, _ | _, None -> None

let hidden_witnesses pfsm ~candidates =
  let is_hidden c =
    match verdicts pfsm c with
    | Some (false, true) -> true
    | Some ((true, _) | (false, false)) | None -> false
  in
  List.filter is_hidden candidates

let correctly_implemented pfsm ~candidates = hidden_witnesses pfsm ~candidates = []

let overstrict_witnesses pfsm ~candidates =
  let is_overstrict c =
    match verdicts pfsm c with
    | Some (true, false) -> true
    | Some ((false, _) | (true, true)) | None -> false
  in
  List.filter is_overstrict candidates
