module P = Pfsm.Predicate

type config = {
  input_check : bool;
  full_index_check : bool;
  got_audit : bool;
}

let vulnerable = { input_check = false; full_index_check = false; got_audit = false }

type t = {
  proc : Machine.Process.t;
  config : config;
  tTvect : Machine.Addr.t;
  mcode : Machine.Addr.t;
}

(* The paper's predicate admits indices 0..100 inclusive, so the
   array holds 101 debug slots. *)
let tTvect_entries = 101

let setup ?(config = vulnerable) ?aslr_seed () =
  let proc = Machine.Process.create ?aslr_seed () in
  Machine.Process.register_function proc "setuid";
  Machine.Process.register_function proc "main";
  let tTvect = Machine.Process.alloc_global proc "tTvect" (4 * tTvect_entries) in
  let mcode = Machine.Process.alloc_global proc "mcode" 64 in
  Machine.Process.mark_shellcode proc ~addr:mcode ~len:64 ~label:"Mcode";
  { proc; config; tTvect; mcode }

let proc t = t.proc

let config t = t.config

let tTvect_addr t = t.tTvect

let setuid_slot t = Machine.Got.slot_addr (Machine.Process.got t.proc) "setuid"

let mcode_addr t = t.mcode

let exploit_index t = (setuid_slot t - t.tTvect) / 4

let exploit_str_x t = string_of_int (exploit_index t + 0x1_0000_0000)

let str_x_representable str_x =
  match Pfsm.Strcodec.parse_integer str_x with
  | Some v -> Pfsm.Strcodec.fits_int32 v
  | None -> true   (* non-numeric parses to 0: representable *)

let tTflag t ~str_x ~str_i =
  Outcome.guard @@ fun () ->
  if t.config.input_check && not (str_x_representable str_x) then
    Outcome.Refused "str_x does not represent a 32-bit integer"
  else
    let x = Pfsm.Strcodec.atoi32 str_x in
    let i = Pfsm.Strcodec.atoi32 str_i in
    let out_of_range =
      if t.config.full_index_check then x < 0 || x > 100 else x > 100
    in
    if out_of_range then Outcome.Refused "index x out of range"
    else
      let target = t.tTvect + (4 * x) in
      match Machine.Memory.write_i32 (Machine.Process.mem t.proc) target i with
      | () ->
          if target >= t.tTvect && target < t.tTvect + (4 * tTvect_entries) then
            Outcome.Benign (Printf.sprintf "tTvect[%d] = %d" x i)
          else if target = setuid_slot t then
            Outcome.Arbitrary_write { addr = target; value = i }
          else
            Outcome.Memory_corruption
              (Printf.sprintf "tTvect[%d] write landed at 0x%08x" x target)
      | exception Machine.Memory.Fault { addr; _ } ->
          Outcome.Crash (Printf.sprintf "segfault writing 0x%08x" addr)

let call_setuid t =
  let got = Machine.Process.got t.proc in
  if t.config.got_audit && not (Machine.Got.unchanged got "setuid") then
    Outcome.Protection_triggered "GOT entry of setuid was tampered with"
  else
    match Machine.Process.call_via_got t.proc "setuid" with
    | Machine.Process.Legit name -> Outcome.Benign (name ^ " executed normally")
    | Machine.Process.Shellcode label -> Outcome.Code_execution label
    | Machine.Process.Wild addr ->
        Outcome.Crash (Printf.sprintf "setuid call jumped to 0x%08x" addr)

let run_attack t ~str_x ~str_i =
  Outcome.guard @@ fun () ->
  let o1 = tTflag t ~str_x ~str_i in
  match o1 with
  | Outcome.Refused _ | Outcome.Protection_triggered _ | Outcome.Crash _
  | Outcome.Resource_fault _ -> o1
  | Outcome.Benign _ | Outcome.Arbitrary_write _ | Outcome.Memory_corruption _
  | Outcome.Code_execution _ | Outcome.File_overwritten _ | Outcome.Info_leak _ -> (
      let o2 = call_setuid t in
      match o2 with
      | Outcome.Benign _ -> (
          match o1 with
          | Outcome.Benign _ -> Outcome.Benign "debug level set; setuid ran normally"
          | other -> other)
      | other -> other)

(* ------------------------------------------------------------------ *)
(* The Figure-3 FSM model, with this instance's addresses baked in.   *)

let scenario ~str_x ~str_i =
  Pfsm.Env.empty
  |> Pfsm.Env.add_str "input.str_x" str_x
  |> Pfsm.Env.add_str "input.str_i" str_i

let exploit_scenario t =
  scenario ~str_x:(exploit_str_x t) ~str_i:(string_of_int t.mcode)

let benign_scenario = scenario ~str_x:"42" ~str_i:"7"

let model t =
  let original = Machine.Got.original (Machine.Process.got t.proc) "setuid" in
  let slot = setuid_slot t in
  let pfsm1 =
    Pfsm.Primitive.make ~name:"pFSM1" ~kind:Pfsm.Taxonomy.Object_type_check
      ~activity:"get text strings str_x and str_i; convert to integers i and x"
      ~spec:(P.Fits_int32 P.Self)
      ~impl:(if t.config.input_check then P.Fits_int32 P.Self else P.True)
  in
  let convert env obj =
    let x = Pfsm.Strcodec.atoi32 (Pfsm.Value.as_str obj) in
    let i = Pfsm.Strcodec.atoi32 (Pfsm.Env.get_str "input.str_i" env) in
    let env = env |> Pfsm.Env.add_int "x" x |> Pfsm.Env.add_int "i" i in
    (env, Pfsm.Value.Int x)
  in
  let index_spec = P.between P.Self ~low:0 ~high:100 in
  let pfsm2 =
    Pfsm.Primitive.make ~name:"pFSM2" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"write i to tTvect[x]"
      ~spec:index_spec
      ~impl:
        (if t.config.full_index_check then index_spec
         else P.Cmp (P.Le, P.Self, P.Lit (Pfsm.Value.Int 100)))
  in
  (* capture the scalar base address, not [t]: closing over [t] would
     drag the whole process image (Machine.Memory's page table and
     every page written so far) into the model's marshal image and the
     analysis-memo digest *)
  let tTvect = t.tTvect in
  let write_effect env =
    let x = Pfsm.Env.get_int "x" env and i = Pfsm.Env.get_int "i" env in
    let target = tTvect + (4 * x) in
    let current = if target = slot then i else original in
    Pfsm.Env.add_addr "got.setuid.current" current env
  in
  let op1 =
    Pfsm.Operation.make ~name:"Write debug level i to tTvect[x]"
      ~object_name:"input integers (str_x, str_i)"
      ~effect_label:"GOT entry of setuid may now point to Mcode"
      ~effect_:write_effect
      [ Pfsm.Operation.stage ~action:convert
          ~action_label:"convert str_i and str_x to integers i and x" pfsm1;
        Pfsm.Operation.stage ~action_label:"tTvect[x] = i" pfsm2 ]
  in
  let ref_spec = P.Cmp (P.Eq, P.Self, P.Lit (Pfsm.Value.Addr original)) in
  let pfsm3 =
    Pfsm.Primitive.make ~name:"pFSM3" ~kind:Pfsm.Taxonomy.Reference_consistency_check
      ~activity:"execute code referred by addr_setuid"
      ~spec:ref_spec
      ~impl:(if t.config.got_audit then ref_spec else P.True)
  in
  let exec_effect env =
    let current = Pfsm.Env.get_addr "got.setuid.current" env in
    Pfsm.Env.add_bool "mcode_executed" (current <> original) env
  in
  let op2 =
    Pfsm.Operation.make ~name:"Manipulate the GOT entry of function setuid"
      ~object_name:"addr_setuid"
      ~effect_label:"Execute Mcode" ~effect_:exec_effect
      [ Pfsm.Operation.stage ~action_label:"jump to *addr_setuid" pfsm3 ]
  in
  Pfsm.Model.make ~name:"Sendmail Debugging Function Signed Integer Overflow"
    ~bugtraq_id:3163
    ~description:
      "A signed integer overflow in tTflag() lets a negative array index rewrite the \
       GOT entry of setuid(), redirecting the next setuid() call to attacker code."
    [ Pfsm.Model.bind
        ~input:(fun env -> Pfsm.Env.get "input.str_x" env)
        ~input_label:"user input string str_x" op1;
      Pfsm.Model.bind
        ~input:(fun env -> Pfsm.Env.get "got.setuid.current" env)
        ~input_label:"addr_setuid (GOT entry of setuid)" op2 ]
