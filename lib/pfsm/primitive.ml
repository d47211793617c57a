type transition = Spec_acpt | Spec_rej | Impl_rej | Impl_acpt

type state = Spec_check_state | Accept_state | Reject_state

type verdict = {
  final : state;
  path : transition list;
  hidden : bool;
}

type t = {
  name : string;
  kind : Taxonomy.kind;
  activity : string;
  spec : Predicate.t;
  impl : Predicate.t;
}

let make ~name ~kind ~activity ~spec ~impl = { name; kind; activity; spec; impl }

let run t ~env ~self =
  if Predicate.holds ~env ~self t.spec then
    { final = Accept_state; path = [ Spec_acpt ]; hidden = false }
  else if Predicate.holds ~env ~self t.impl then
    { final = Accept_state; path = [ Spec_rej; Impl_acpt ]; hidden = true }
  else
    { final = Reject_state; path = [ Spec_rej; Impl_rej ]; hidden = false }

let missing_check t = Predicate.no_check t.impl

let secured t = { t with impl = t.spec }

let transition_to_string = function
  | Spec_acpt -> "SPEC_ACPT"
  | Spec_rej -> "SPEC_REJ"
  | Impl_rej -> "IMPL_REJ"
  | Impl_acpt -> "IMPL_ACPT"

let state_to_string = function
  | Spec_check_state -> "SPEC check"
  | Accept_state -> "accept"
  | Reject_state -> "reject"

let pp_verdict ppf v =
  Format.fprintf ppf "%s via %s%s"
    (state_to_string v.final)
    (String.concat " -> " (List.map transition_to_string v.path))
    (if v.hidden then " [HIDDEN PATH]" else "")
