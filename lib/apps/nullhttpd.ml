module P = Pfsm.Predicate

type version = V0_5 | V0_5_1

type config = {
  version : version;
  loop_fixed : bool;
  safe_unlink : bool;
}

let vulnerable_v0_5 = { version = V0_5; loop_fixed = false; safe_unlink = false }

let v0_5_1 = { version = V0_5_1; loop_fixed = false; safe_unlink = false }

let fully_fixed = { version = V0_5_1; loop_fixed = true; safe_unlink = false }

type t = {
  proc : Machine.Process.t;
  config : config;
  mcode : Machine.Addr.t;
  keep_buf : Machine.Addr.t;    (* a long-lived buffer the server frees later *)
  work_region : Machine.Addr.t; (* freed chunk PostData will be carved from *)
}

let setup ?(config = vulnerable_v0_5) ?aslr_seed () =
  let proc = Machine.Process.create ~safe_unlink:config.safe_unlink ?aslr_seed () in
  Machine.Process.register_function proc "free";
  Machine.Process.register_function proc "main";
  let mcode = Machine.Process.alloc_global proc "mcode" 64 in
  Machine.Process.mark_shellcode proc ~addr:mcode ~len:64 ~label:"Mcode";
  let heap = Machine.Process.heap proc in
  let keep_buf =
    match Machine.Heap.malloc heap 512 with
    | Some a -> a
    | None -> Fault.Condition.fail (Fault.Condition.Heap_exhausted { requested = 512 })
  in
  let work_region =
    match Machine.Heap.malloc heap 4096 with
    | Some a -> a
    | None -> Fault.Condition.fail (Fault.Condition.Heap_exhausted { requested = 4096 })
  in
  Machine.Heap.free heap work_region;
  { proc; config; mcode; keep_buf; work_region }

let proc t = t.proc

let config t = t.config

let mcode_addr t = t.mcode

let free_slot t = Machine.Got.slot_addr (Machine.Process.got t.proc) "free"

let usable_for ~content_len =
  Machine.Heap.request_size (content_len + 1024) - 8

(* free() as the program sees it: an indirect call through the GOT.
   A corrupted slot means the "call" lands in attacker code instead
   of libc's free. *)
let libc_free t user =
  match Machine.Process.call_via_got t.proc "free" with
  | Machine.Process.Shellcode label -> Error (Outcome.Code_execution label)
  | Machine.Process.Wild addr ->
      Error (Outcome.Crash (Printf.sprintf "free call jumped to 0x%08x" addr))
  | Machine.Process.Legit _ -> (
      match Machine.Heap.free (Machine.Process.heap t.proc) user with
      | () -> Ok ()
      | exception Machine.Heap.Corruption_detected { chunk } ->
          Error
            (Outcome.Protection_triggered
               (Printf.sprintf "safe unlink rejected corrupted chunk 0x%08x" chunk))
      | exception Machine.Memory.Fault { addr; _ } ->
          (* Garbage fd/bk from an uncontrolled overflow: free()
             dereferences them and the process segfaults. *)
          Error (Outcome.Crash (Printf.sprintf "free() faulted at 0x%08x" addr)))

(* Figure 4b's ReadPOSTData loop, bug included. *)
let read_post_data t ~postdata ~content_len ~body =
  let mem = Machine.Process.mem t.proc in
  let sock = Osmodel.Socket.of_string body in
  let rec loop p x =
    let s = Osmodel.Socket.recv sock 1024 in
    let rc = String.length s in
    if rc = 0 then x   (* peer closed; a real server would stall here *)
    else begin
      Machine.Memory.write_string mem p s;
      let p = p + rc and x = x + rc in
      let continue =
        if t.config.loop_fixed then rc = 1024 && x < content_len
        else rc = 1024 || x < content_len
      in
      if continue then loop p x else x
    end
  in
  match loop postdata 0 with
  | x -> Ok x
  | exception Machine.Memory.Fault { addr; _ } ->
      Error (Outcome.Crash (Printf.sprintf "segfault writing heap at 0x%08x" addr))

let handle_post t ~content_len ~body =
  Outcome.guard @@ fun () ->
  if t.config.version = V0_5_1 && content_len < 0 then
    Outcome.Refused "negative Content-Length rejected (0.5.1 check)"
  else
    let heap = Machine.Process.heap t.proc in
    match Machine.Heap.calloc heap ~count:(content_len + 1024) ~size:1 with
    | None -> Outcome.Crash "calloc(contentLen+1024) returned NULL"
    | Some postdata -> (
        match read_post_data t ~postdata ~content_len ~body with
        | Error outcome -> outcome
        | Ok received when
            t.config.loop_fixed && received < String.length body ->
            (* The corrected loop stopped at capacity; the excess
               bytes were never accepted. *)
            Outcome.Refused
              (Printf.sprintf "body truncated: read %d of %d bytes" received
                 (String.length body))
        | Ok received -> (
            let usable = Machine.Heap.usable_size heap ~user:postdata in
            let overflowed = received > usable in
            match libc_free t postdata with
            | Error outcome -> outcome
            | Ok () -> (
                (* The server keeps running and eventually frees
                   another buffer -- the call the exploit hijacks. *)
                match libc_free t t.keep_buf with
                | Error outcome -> outcome
                | Ok () ->
                    let got = Machine.Process.got t.proc in
                    if not (Machine.Got.unchanged got "free") then
                      Outcome.Arbitrary_write
                        { addr = free_slot t;
                          value = Machine.Got.resolve got "free" }
                    else if overflowed then
                      Outcome.Memory_corruption
                        (Printf.sprintf "wrote %d bytes into a %d-byte PostData"
                           received usable)
                    else Outcome.Benign (Printf.sprintf "%d-byte POST handled" received))))

(* ------------------------------------------------------------------ *)
(* The Figure-4 FSM model.                                             *)

let scenario ~content_len ~body =
  Pfsm.Env.empty
  |> Pfsm.Env.add_int "request.contentLen" content_len
  |> Pfsm.Env.add_str "request.body" body
  |> Pfsm.Env.add_bool "chunkB.links.unchanged" true
  |> Pfsm.Env.add_bool "got.free.unchanged" true

let benign_scenario = scenario ~content_len:64 ~body:(String.make 64 'a')

let model t =
  let nonneg = P.Cmp (P.Ge, P.Self, P.Lit (Pfsm.Value.Int 0)) in
  let pfsm1 =
    Pfsm.Primitive.make ~name:"pFSM1" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"read contentLen from the request; calloc(contentLen+1024)"
      ~spec:nonneg
      ~impl:(if t.config.version = V0_5_1 then nonneg else P.True)
  in
  let alloc_action env obj =
    let content_len = Pfsm.Value.as_int obj in
    let env = Pfsm.Env.add_int "buffer.size" (usable_for ~content_len) env in
    (env, Pfsm.Env.get "request.body" env)
  in
  let len_spec = P.Cmp (P.Le, P.Length P.Self, P.Env_val "buffer.size") in
  let pfsm2 =
    Pfsm.Primitive.make ~name:"pFSM2" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"recv the request body into PostData"
      ~spec:len_spec
      ~impl:(if t.config.loop_fixed then len_spec else P.True)
  in
  let copy_effect env =
    let body = Pfsm.Env.get_str "request.body" env in
    let size = Pfsm.Env.get_int "buffer.size" env in
    Pfsm.Env.add_bool "chunkB.links.unchanged" (String.length body <= size) env
  in
  let op1 =
    Pfsm.Operation.make ~name:"Read postdata from socket to PostData"
      ~object_name:"contentLen and input"
      ~effect_label:"free-chunk B's fd/bk may now be attacker-controlled"
      ~effect_:copy_effect
      [ Pfsm.Operation.stage ~action:alloc_action
          ~action_label:"PostData = calloc(contentLen+1024); switch object to input"
          pfsm1;
        Pfsm.Operation.stage ~action_label:"copy input into PostData" pfsm2 ]
  in
  let links_spec = P.Env_flag "chunkB.links.unchanged" in
  let pfsm3 =
    Pfsm.Primitive.make ~name:"pFSM3" ~kind:Pfsm.Taxonomy.Reference_consistency_check
      ~activity:"free(PostData): unlink the following free chunk B"
      ~spec:links_spec
      ~impl:(if t.config.safe_unlink then links_spec else P.True)
  in
  let unlink_effect env =
    let intact = Pfsm.Env.flag "chunkB.links.unchanged" env in
    Pfsm.Env.add_bool "got.free.unchanged" intact env
  in
  let op2 =
    Pfsm.Operation.make ~name:"Allocate and free the buffer PostData"
      ~object_name:"free chunk B (fd, bk)"
      ~effect_label:"B->fd->bk = B->bk executes: GOT entry of free may point to Mcode"
      ~effect_:unlink_effect
      [ Pfsm.Operation.stage ~action_label:"execute B->fd->bk = B->bk" pfsm3 ]
  in
  let got_spec = P.Env_flag "got.free.unchanged" in
  let pfsm4 =
    Pfsm.Primitive.make ~name:"pFSM4" ~kind:Pfsm.Taxonomy.Reference_consistency_check
      ~activity:"execute addr_free when free is called"
      ~spec:got_spec ~impl:P.True
  in
  let exec_effect env =
    Pfsm.Env.add_bool "mcode_executed" (not (Pfsm.Env.flag "got.free.unchanged" env)) env
  in
  let op3 =
    Pfsm.Operation.make ~name:"Manipulate the GOT entry of function free"
      ~object_name:"addr_free"
      ~effect_label:"Mcode is executed" ~effect_:exec_effect
      [ Pfsm.Operation.stage ~action_label:"jump to *addr_free" pfsm4 ]
  in
  Pfsm.Model.make ~name:"NULL HTTPD Heap Overflow"
    ~bugtraq_id:(if t.config.version = V0_5 then 5774 else 6255)
    ~description:
      "ReadPOSTData copies a socket body into calloc(contentLen+1024); a negative \
       contentLen (#5774) or the ||-for-&& loop bug (#6255) overflows PostData into \
       the following free chunk, whose unlink at free() rewrites the GOT entry of \
       free() to attacker code."
    [ Pfsm.Model.bind
        ~input:(fun env -> Pfsm.Env.get "request.contentLen" env)
        ~input_label:"contentLen from the HTTP request" op1;
      Pfsm.Model.bind
        ~input:(fun _ -> Pfsm.Value.Unit)
        ~input_label:"free chunk B adjacent to PostData" op2;
      Pfsm.Model.bind
        ~input:(fun _ -> Pfsm.Value.Unit)
        ~input_label:"addr_free (GOT entry of free)" op3 ]
