type t =
  | Access_validation_error
  | Atomicity_error
  | Boundary_condition_error
  | Configuration_error
  | Design_error
  | Environment_error
  | Failure_to_handle_exceptional_conditions
  | Input_validation_error
  | Origin_validation_error
  | Race_condition_error
  | Serialization_error
  | Unknown

let all =
  [ Access_validation_error; Atomicity_error; Boundary_condition_error;
    Configuration_error; Design_error; Environment_error;
    Failure_to_handle_exceptional_conditions; Input_validation_error;
    Origin_validation_error; Race_condition_error; Serialization_error; Unknown ]

let index = function
  | Access_validation_error -> 0
  | Atomicity_error -> 1
  | Boundary_condition_error -> 2
  | Configuration_error -> 3
  | Design_error -> 4
  | Environment_error -> 5
  | Failure_to_handle_exceptional_conditions -> 6
  | Input_validation_error -> 7
  | Origin_validation_error -> 8
  | Race_condition_error -> 9
  | Serialization_error -> 10
  | Unknown -> 11

let to_string = function
  | Access_validation_error -> "Access Validation Error"
  | Atomicity_error -> "Atomicity Error"
  | Boundary_condition_error -> "Boundary Condition Error"
  | Configuration_error -> "Configuration Error"
  | Design_error -> "Design Error"
  | Environment_error -> "Environment Error"
  | Failure_to_handle_exceptional_conditions -> "Failure to Handle Exceptional Conditions"
  | Input_validation_error -> "Input Validation Error"
  | Origin_validation_error -> "Origin Validation Error"
  | Race_condition_error -> "Race Condition Error"
  | Serialization_error -> "Serialization Error"
  | Unknown -> "Unknown"

let of_string s =
  List.find_opt (fun c -> String.equal (to_string c) s) all

let definition = function
  | Access_validation_error -> "an operation on an object outside its access domain"
  | Atomicity_error ->
      "code terminated with data only partially modified as part of a defined operation"
  | Boundary_condition_error ->
      "an overflow of a static-sized data structure: a classic buffer overflow condition"
  | Configuration_error -> "a system utility installed with incorrect setup parameters"
  | Design_error -> ""
  | Environment_error ->
      "an interaction in a specific environment between functionally correct modules"
  | Failure_to_handle_exceptional_conditions ->
      "system failure to handle an exceptional condition generated by a functional \
       module, device, or user input"
  | Input_validation_error -> "failure to recognize syntactically incorrect input"
  | Origin_validation_error -> ""
  | Race_condition_error -> "an error during a timing window between two operations"
  | Serialization_error -> "inadequate or improper serialization of operations"
  | Unknown -> ""

let paper_percent = function
  | Input_validation_error -> 23
  | Boundary_condition_error -> 21
  | Design_error -> 18
  | Failure_to_handle_exceptional_conditions -> 11
  | Access_validation_error -> 10
  | Race_condition_error -> 6
  | Configuration_error -> 5
  | Origin_validation_error -> 3
  | Unknown -> 2
  | Environment_error -> 1
  | Serialization_error -> 0
  | Atomicity_error -> 0

(* Integer counts chosen to sum to exactly 5925 while rounding to the
   Figure-1 percentages. *)
let paper_count = function
  | Input_validation_error -> 1360
  | Boundary_condition_error -> 1243
  | Design_error -> 1065
  | Failure_to_handle_exceptional_conditions -> 651
  | Access_validation_error -> 592
  | Race_condition_error -> 355
  | Configuration_error -> 296
  | Origin_validation_error -> 178
  | Unknown -> 118
  | Environment_error -> 57
  | Serialization_error -> 6
  | Atomicity_error -> 4

let total_reports = 5925

let pp ppf c = Format.pp_print_string ppf (to_string c)

let equal (a : t) b = a = b
