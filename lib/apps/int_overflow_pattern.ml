module P = Pfsm.Predicate

type activity = Get_input | Index_array | Execute_reference

let activities = [ Get_input; Index_array; Execute_reference ]

let activity_description = function
  | Get_input -> "get an input integer"
  | Index_array -> "use the integer as the index to an array"
  | Execute_reference -> "execute a code referred by a function pointer or a return address"

let category_assigned = function
  | Get_input -> Vulndb.Category.Input_validation_error
  | Index_array -> Vulndb.Category.Boundary_condition_error
  | Execute_reference -> Vulndb.Category.Access_validation_error

let bugtraq_example = function
  | Get_input -> 3163
  | Index_array -> 5493
  | Execute_reference -> 3958

(* The canonical table size. *)
let array_length = 100

let pfsm_name = function
  | Get_input -> "pFSM-get"
  | Index_array -> "pFSM-index"
  | Execute_reference -> "pFSM-exec"

let model () =
  let get =
    Pfsm.Checks.pfsm ~name:(pfsm_name Get_input) ~check:"representable_int32"
      ~activity:(activity_description Get_input)
      Pfsm.Checks.representable_int32
  in
  let convert env obj =
    let x = Pfsm.Strcodec.atoi32 (Pfsm.Value.as_str obj) in
    (Pfsm.Env.add_int "x" x env, Pfsm.Value.Int x)
  in
  let index =
    Pfsm.Checks.pfsm ~name:(pfsm_name Index_array) ~check:"index_in_bounds"
      ~activity:(activity_description Index_array)
      ~impl:(P.Cmp (P.Le, P.Self, P.Lit (Pfsm.Value.Int (array_length - 1))))
      (Pfsm.Checks.index_in_bounds ~low:0 ~high:(array_length - 1))
  in
  let write_effect env =
    Pfsm.Env.add_bool "fnptr.unchanged" (Pfsm.Env.get_int "x" env >= 0) env
  in
  let op1 =
    Pfsm.Operation.make ~name:"Manipulate the input integer"
      ~object_name:"the input integer"
      ~effect_label:"table[x] write may corrupt an adjacent function pointer"
      ~effect_:write_effect
      [ Pfsm.Operation.stage ~action:convert ~action_label:"convert string to int" get;
        Pfsm.Operation.stage ~action_label:"table[x] = value" index ]
  in
  let exec =
    Pfsm.Checks.pfsm ~name:(pfsm_name Execute_reference) ~check:"reference_unchanged"
      ~activity:(activity_description Execute_reference)
      (Pfsm.Checks.reference_unchanged ~flag:"fnptr.unchanged")
  in
  let exec_effect env =
    Pfsm.Env.add_bool "attacker_code_executed"
      (not (Pfsm.Env.flag "fnptr.unchanged" env))
      env
  in
  let op2 =
    Pfsm.Operation.make ~name:"Manipulate the function pointer"
      ~object_name:"the function pointer"
      ~effect_label:"control transfers to the corrupted target"
      ~effect_:exec_effect
      [ Pfsm.Operation.stage ~action_label:"call through the pointer" exec ]
  in
  Pfsm.Model.make ~name:"Generic signed integer overflow exploitation pattern (Table 1)"
    ~description:
      "One mechanism, three elementary activities: the classification ambiguity of \
       Table 1 formalised as a single three-pFSM chain."
    [ Pfsm.Model.bind
        ~input:(fun env -> Pfsm.Env.get "input.str" env)
        ~input_label:"the attacker's decimal string" op1;
      Pfsm.Model.bind ~input:(fun _ -> Pfsm.Value.Unit)
        ~input_label:"the function pointer" op2 ]

let scenario s = Pfsm.Env.add_str "input.str" s Pfsm.Env.empty

let exploit_scenario = scenario "4294966296"   (* wraps to -1000 *)

let benign_scenario = scenario "42"

let ambiguity_rows () =
  let trace = Pfsm.Model.run (model ()) ~env:exploit_scenario in
  let hidden_at name =
    List.exists
      (fun s ->
         s.Pfsm.Trace.pfsm.Pfsm.Primitive.name = name && s.Pfsm.Trace.verdict.Pfsm.Primitive.hidden)
      trace.Pfsm.Trace.steps
  in
  List.map
    (fun a -> (a, bugtraq_example a, category_assigned a, hidden_at (pfsm_name a)))
    activities
