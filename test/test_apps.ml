(* Tests for the seven vulnerable-application simulations and their
   FSM models, plus the format-string interpreter. *)

module O = Apps.Outcome
module V = Pfsm.Value
module E = Pfsm.Env

let check_verdict name expected outcome =
  Alcotest.(check string) name
    (O.verdict_to_string expected)
    (O.verdict_to_string (O.verdict outcome))

(* ---- outcome ----------------------------------------------------- *)

let test_outcome_verdicts () =
  check_verdict "benign" O.Normal (O.Benign "x");
  check_verdict "refused" O.Blocked (O.Refused "x");
  check_verdict "protection" O.Blocked (O.Protection_triggered "x");
  check_verdict "exec" O.Compromised (O.Code_execution "m");
  check_verdict "write" O.Compromised (O.Arbitrary_write { addr = 1; value = 2 });
  check_verdict "leak" O.Compromised (O.Info_leak "x");
  check_verdict "crash" O.Compromised (O.Crash "x")

(* ---- format interpreter ------------------------------------------ *)

let fmt_mem () =
  let mem = Machine.Memory.create ~base:0x1000 ~size:0x1000 in
  Machine.Memory.write_i32 mem 0x1100 0xbeef;
  Machine.Memory.write_i32 mem 0x1104 77;
  mem

let test_fmt_literal () =
  let r = Apps.Format_interp.interpret (fmt_mem ()) ~fmt:"hello" ~arg_cursor:0x1100 in
  Alcotest.(check string) "passthrough" "hello" r.Apps.Format_interp.output;
  Alcotest.(check int) "count" 5 r.Apps.Format_interp.chars_written

let test_fmt_pops_args_in_order () =
  let r = Apps.Format_interp.interpret (fmt_mem ()) ~fmt:"%x:%d" ~arg_cursor:0x1100 in
  Alcotest.(check string) "hex then dec" "beef:77" r.Apps.Format_interp.output

let test_fmt_width_padding () =
  let r = Apps.Format_interp.interpret (fmt_mem ()) ~fmt:"%8x" ~arg_cursor:0x1100 in
  Alcotest.(check string) "padded" "    beef" r.Apps.Format_interp.output;
  Alcotest.(check int) "exactly 8" 8 r.Apps.Format_interp.chars_written

let test_fmt_percent_escape () =
  let r = Apps.Format_interp.interpret (fmt_mem ()) ~fmt:"100%%" ~arg_cursor:0x1100 in
  Alcotest.(check string) "escape" "100%" r.Apps.Format_interp.output

let test_fmt_percent_n_writes () =
  let mem = fmt_mem () in
  (* arg word at 0x1100 must be an address for %n: point it at 0x1200 *)
  Machine.Memory.write_i32 mem 0x1100 0x1200;
  let r = Apps.Format_interp.interpret mem ~fmt:"abcd%n" ~arg_cursor:0x1100 in
  Alcotest.(check int) "stored count" 4 (Machine.Memory.read_i32 mem 0x1200);
  Alcotest.(check (list (pair int int))) "write recorded" [ (0x1200, 4) ]
    r.Apps.Format_interp.writes

let test_fmt_percent_n_with_width_control () =
  let mem = fmt_mem () in
  Machine.Memory.write_i32 mem 0x1100 1;        (* popped by %50x *)
  Machine.Memory.write_i32 mem 0x1104 0x1200;   (* popped by %n *)
  let r = Apps.Format_interp.interpret mem ~fmt:"%50x%n" ~arg_cursor:0x1100 in
  Alcotest.(check int) "count == width" 50 (Machine.Memory.read_i32 mem 0x1200);
  Alcotest.(check int) "chars" 50 r.Apps.Format_interp.chars_written

let test_fmt_s_reads_string () =
  let mem = fmt_mem () in
  Machine.Memory.write_string mem 0x1200 "pwd\000";
  Machine.Memory.write_i32 mem 0x1100 0x1200;
  let r = Apps.Format_interp.interpret mem ~fmt:"<%s>" ~arg_cursor:0x1100 in
  Alcotest.(check string) "dereferenced" "<pwd>" r.Apps.Format_interp.output

let test_fmt_output_capped_count_exact () =
  let mem = fmt_mem () in
  Machine.Memory.write_i32 mem 0x1100 1;
  let r = Apps.Format_interp.interpret mem ~fmt:"%9999x" ~arg_cursor:0x1100 in
  Alcotest.(check int) "true count" 9999 r.Apps.Format_interp.chars_written;
  Alcotest.(check bool) "output capped" true
    (String.length r.Apps.Format_interp.output <= 4096)

(* ---- sendmail ---------------------------------------------------- *)

let test_sendmail_exploit_chain () =
  let app = Apps.Sendmail.setup () in
  let str_x, str_i = Exploit.Attack.sendmail_inputs app in
  let o = Apps.Sendmail.run_attack app ~str_x ~str_i in
  (match o with
   | O.Code_execution "Mcode" -> ()
   | other -> Alcotest.fail ("expected Mcode execution, got " ^ O.to_string other));
  Alcotest.(check bool) "GOT corrupted" false
    (Machine.Got.unchanged (Machine.Process.got (Apps.Sendmail.proc app)) "setuid")

let test_sendmail_benign () =
  let app = Apps.Sendmail.setup () in
  check_verdict "benign inputs" O.Normal (Apps.Sendmail.run_attack app ~str_x:"42" ~str_i:"7")

let test_sendmail_index_math () =
  let app = Apps.Sendmail.setup () in
  let x = Apps.Sendmail.exploit_index app in
  Alcotest.(check bool) "negative index" true (x < 0);
  Alcotest.(check int) "lands on the GOT slot"
    (Apps.Sendmail.setuid_slot app)
    (Apps.Sendmail.tTvect_addr app + (4 * x));
  Alcotest.(check int) "str_x wraps back to x" x
    (Pfsm.Strcodec.atoi32 (Apps.Sendmail.exploit_str_x app))

let test_sendmail_in_range_write_is_benign () =
  let app = Apps.Sendmail.setup () in
  check_verdict "x=100 boundary" O.Normal (Apps.Sendmail.tTflag app ~str_x:"100" ~str_i:"1");
  check_verdict "x=101 refused" O.Blocked (Apps.Sendmail.tTflag app ~str_x:"101" ~str_i:"1")

let test_sendmail_wild_negative_corrupts () =
  let app = Apps.Sendmail.setup () in
  (* A negative index that misses the GOT slot: silent corruption or
     crash, never benign. *)
  let o = Apps.Sendmail.tTflag app ~str_x:"-3" ~str_i:"9" in
  check_verdict "memory corruption" O.Compromised o

let test_sendmail_protections_block () =
  let base = Apps.Sendmail.vulnerable in
  let run config =
    let app = Apps.Sendmail.setup ~config () in
    let str_x, str_i = Exploit.Attack.sendmail_inputs app in
    Apps.Sendmail.run_attack app ~str_x ~str_i
  in
  check_verdict "input check" O.Blocked
    (run { base with Apps.Sendmail.input_check = true });
  check_verdict "index check" O.Blocked
    (run { base with Apps.Sendmail.full_index_check = true });
  check_verdict "GOT audit" O.Blocked
    (run { base with Apps.Sendmail.got_audit = true })

let test_sendmail_model_trace () =
  let app = Apps.Sendmail.setup () in
  let model = Apps.Sendmail.model app in
  let trace = Pfsm.Model.run model ~env:(Apps.Sendmail.exploit_scenario app) in
  Alcotest.(check bool) "exploited" true (Pfsm.Trace.exploited trace);
  Alcotest.(check int) "three hidden steps" 3 (Pfsm.Trace.hidden_count trace);
  let benign = Pfsm.Model.run model ~env:Apps.Sendmail.benign_scenario in
  Alcotest.(check bool) "benign not exploited" false (Pfsm.Trace.exploited benign);
  Alcotest.(check bool) "benign completes" true benign.Pfsm.Trace.completed

let test_sendmail_model_taxonomy () =
  let app = Apps.Sendmail.setup () in
  let matrix = Pfsm.Analysis.taxonomy_matrix (Apps.Sendmail.model app) in
  let names kind =
    List.map (fun (_, p) -> p.Pfsm.Primitive.name) (List.assoc kind matrix)
  in
  (* Table 2's Sendmail row. *)
  Alcotest.(check (list string)) "object type" [ "pFSM1" ]
    (names Pfsm.Taxonomy.Object_type_check);
  Alcotest.(check (list string)) "content" [ "pFSM2" ]
    (names Pfsm.Taxonomy.Content_attribute_check);
  Alcotest.(check (list string)) "reference" [ "pFSM3" ]
    (names Pfsm.Taxonomy.Reference_consistency_check)

(* ---- nullhttpd --------------------------------------------------- *)

let test_nullhttpd_5774 () =
  let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.vulnerable_v0_5 () in
  let content_len, body = Exploit.Attack.nullhttpd_5774 app in
  Alcotest.(check int) "negative contentLen" (-800) content_len;
  match Apps.Nullhttpd.handle_post app ~content_len ~body with
  | O.Code_execution "Mcode" -> ()
  | other -> Alcotest.fail ("expected Mcode, got " ^ O.to_string other)

let test_nullhttpd_6255 () =
  let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let content_len, body = Exploit.Attack.nullhttpd_6255 app in
  Alcotest.(check bool) "correct contentLen" true (content_len >= 0);
  match Apps.Nullhttpd.handle_post app ~content_len ~body with
  | O.Code_execution "Mcode" -> ()
  | other -> Alcotest.fail ("expected Mcode, got " ^ O.to_string other)

let test_nullhttpd_0_5_1_blocks_5774 () =
  let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let content_len, body = Exploit.Attack.nullhttpd_5774 app in
  check_verdict "0.5.1 check" O.Blocked
    (Apps.Nullhttpd.handle_post app ~content_len ~body)

let test_nullhttpd_loop_fix_blocks_6255 () =
  let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.fully_fixed () in
  let content_len, body = Exploit.Attack.nullhttpd_6255 app in
  check_verdict "&& fix" O.Blocked (Apps.Nullhttpd.handle_post app ~content_len ~body)

let test_nullhttpd_safe_unlink_blocks () =
  let config = { Apps.Nullhttpd.v0_5_1 with Apps.Nullhttpd.safe_unlink = true } in
  let app = Apps.Nullhttpd.setup ~config () in
  let content_len, body = Exploit.Attack.nullhttpd_6255 app in
  match Apps.Nullhttpd.handle_post app ~content_len ~body with
  | O.Protection_triggered _ -> ()
  | other -> Alcotest.fail ("expected safe unlink, got " ^ O.to_string other)

let test_nullhttpd_benign_posts () =
  List.iter
    (fun (content_len, body_len) ->
       let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.fully_fixed () in
       check_verdict
         (Printf.sprintf "cl=%d len=%d" content_len body_len)
         O.Normal
         (Apps.Nullhttpd.handle_post app ~content_len
            ~body:(String.make body_len 'b')))
    [ (0, 0); (64, 64); (2048, 2048); (5000, 3000) ]

let test_nullhttpd_silent_corruption_without_fake_header () =
  (* An overflow with plain filler corrupts the heap but never
     reaches code execution: the fake fd/bk are what weaponise it. *)
  let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let o = Apps.Nullhttpd.handle_post app ~content_len:0 ~body:(String.make 2048 'A') in
  match o with
  | O.Memory_corruption _ | O.Crash _ -> ()
  | other -> Alcotest.fail ("expected silent corruption, got " ^ O.to_string other)

let test_nullhttpd_usable_for () =
  Alcotest.(check int) "cl=-800 gives 224 bytes" 224
    (Apps.Nullhttpd.usable_for ~content_len:(-800));
  Alcotest.(check int) "cl=0 gives 1024" 1024 (Apps.Nullhttpd.usable_for ~content_len:0)

let test_nullhttpd_model_verdicts () =
  let app = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let model = Apps.Nullhttpd.model app in
  let content_len, body = Exploit.Attack.nullhttpd_6255 app in
  let trace =
    Pfsm.Model.run model ~env:(Apps.Nullhttpd.scenario ~content_len ~body)
  in
  Alcotest.(check bool) "#6255 exploited in model" true (Pfsm.Trace.exploited trace);
  let benign = Pfsm.Model.run model ~env:Apps.Nullhttpd.benign_scenario in
  Alcotest.(check bool) "benign ok" false (Pfsm.Trace.exploited benign)

(* ---- xterm ------------------------------------------------------- *)

let test_xterm_race_window () =
  let winners = Apps.Xterm.run_race { Apps.Xterm.open_nofollow = false } in
  Alcotest.(check int) "exactly one winning schedule" 1 (List.length winners);
  let v = List.hd winners in
  (* The winning schedule: both attacker steps inside the
     check-to-open window. *)
  Alcotest.(check (list string)) "the TOCTTOU schedule"
    [ "xterm: access(log, W_OK) as tom";
      "tom: unlink /usr/tom/x";
      "tom: symlink /usr/tom/x -> /etc/passwd";
      "xterm: open(log) as root";
      "xterm: write log data" ]
    v.Osmodel.Scheduler.schedule

let test_xterm_race_result_is_passwd_overwrite () =
  match Apps.Xterm.run_race { Apps.Xterm.open_nofollow = false } with
  | [ v ] -> (
      match v.Osmodel.Scheduler.result with
      | O.File_overwritten { path = "/etc/passwd"; _ } -> ()
      | other -> Alcotest.fail (O.to_string other))
  | l -> Alcotest.fail (Printf.sprintf "%d winners" (List.length l))

let test_xterm_nofollow_blocks_all () =
  Alcotest.(check int) "no winning schedule" 0
    (List.length (Apps.Xterm.run_race { Apps.Xterm.open_nofollow = true }))

let test_xterm_interleaving_budget () =
  Alcotest.(check int) "C(5,2) = 10 schedules" 10 Apps.Xterm.total_interleavings

let test_xterm_model () =
  let model = Apps.Xterm.model () in
  Alcotest.(check bool) "race exploited" true
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:Apps.Xterm.race_scenario));
  Alcotest.(check bool) "benign fine" false
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:Apps.Xterm.benign_scenario));
  (* pFSM1 is correctly implemented (no hidden path): the race lives
     in pFSM2 only -- Figure 5's point. *)
  let report =
    Pfsm.Analysis.analyze model ~scenarios:[ Apps.Xterm.race_scenario ]
  in
  let hidden =
    List.map
      (fun f -> f.Pfsm.Analysis.pfsm.Pfsm.Primitive.name)
      (Pfsm.Analysis.vulnerable_pfsms report)
  in
  Alcotest.(check (list string)) "only pFSM2" [ "pFSM2" ] hidden

(* ---- rwall ------------------------------------------------------- *)

let test_rwall_attack () =
  let app = Apps.Rwall.setup () in
  match Apps.Rwall.run_attack app ~message:"evil::0:0\n" with
  | O.File_overwritten { path = "/etc/passwd"; data = "evil::0:0\n" } -> ()
  | other -> Alcotest.fail (O.to_string other)

let test_rwall_benign_broadcast_hits_terminal () =
  let app = Apps.Rwall.setup () in
  let outcomes = Apps.Rwall.broadcast app ~message:"hi\n" in
  Alcotest.(check int) "one utmp entry" 1 (List.length outcomes);
  check_verdict "terminal write" O.Normal (List.hd outcomes);
  Alcotest.(check string) "terminal got the message" "hi\n"
    (Osmodel.Filesystem.content (Apps.Rwall.fs app) "/dev/pts/25")

let test_rwall_protections () =
  let base = Apps.Rwall.vulnerable in
  let attack config =
    Apps.Rwall.run_attack (Apps.Rwall.setup ~config ()) ~message:"x\n"
  in
  check_verdict "utmp 644" O.Blocked
    (attack { base with Apps.Rwall.utmp_world_writable = false });
  check_verdict "terminal check" O.Blocked
    (attack { base with Apps.Rwall.terminal_check = true })

let test_rwall_dev_relative_resolution () =
  let app = Apps.Rwall.setup () in
  ignore (Apps.Rwall.add_utmp_entry app ~as_user:Apps.Rwall.attacker "../etc/passwd");
  (* The entry resolves relative to /dev, escaping to /etc/passwd. *)
  let outcomes = Apps.Rwall.broadcast app ~message:"m\n" in
  Alcotest.(check int) "two entries now" 2 (List.length outcomes)

let test_rwall_model () =
  let app = Apps.Rwall.setup () in
  let model = Apps.Rwall.model app in
  Alcotest.(check bool) "attack exploited" true
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:Apps.Rwall.attack_scenario));
  Alcotest.(check bool) "benign" false
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:Apps.Rwall.benign_scenario))

(* ---- iis --------------------------------------------------------- *)

let test_iis_attack_escapes () =
  let app = Apps.Iis.setup () in
  match Apps.Iis.handle_request app Exploit.Attack.iis_path with
  | O.Code_execution msg ->
      Alcotest.(check bool) "cmd.exe" true
        (String.length msg > 0
         && (let contains ~needle h =
               let nh = String.length h and nn = String.length needle in
               let rec at i = i + nn <= nh && (String.sub h i nn = needle || at (i + 1)) in
               at 0
             in
             contains ~needle:"/winnt/system32/cmd.exe" msg))
  | other -> Alcotest.fail (O.to_string other)

let test_iis_plain_dotdot_blocked () =
  let app = Apps.Iis.setup () in
  check_verdict "../ caught" O.Blocked (Apps.Iis.handle_request app "../x.exe");
  check_verdict "..%2f caught (one decode)" O.Blocked
    (Apps.Iis.handle_request app "..%2fx.exe")

let test_iis_benign () =
  let app = Apps.Iis.setup () in
  check_verdict "hello.exe" O.Normal (Apps.Iis.handle_request app "hello.exe")

let test_iis_single_decode_fix () =
  let app = Apps.Iis.setup ~config:{ Apps.Iis.single_decode = true } () in
  check_verdict "attack harmless" O.Normal
    (Apps.Iis.handle_request app Exploit.Attack.iis_path)

let test_iis_model_hidden_path () =
  let app = Apps.Iis.setup () in
  let model = Apps.Iis.model app in
  Alcotest.(check bool) "..%252f exploited" true
    (Pfsm.Trace.exploited
       (Pfsm.Model.run model ~env:(Apps.Iis.scenario ~path:Exploit.Attack.iis_path)));
  Alcotest.(check bool) "..%2f foiled (impl catches it)" true
    (Pfsm.Trace.foiled
       (Pfsm.Model.run model ~env:(Apps.Iis.scenario ~path:"..%2fx")))

(* ---- ghttpd ------------------------------------------------------ *)

let test_ghttpd_smash () =
  let app = Apps.Ghttpd.setup () in
  match Apps.Ghttpd.serve app ~request:(Exploit.Attack.ghttpd_request app) with
  | O.Code_execution "MCODE" -> ()
  | other -> Alcotest.fail (O.to_string other)

let test_ghttpd_boundary_lengths () =
  let app = Apps.Ghttpd.setup () in
  check_verdict "199 fits with its terminator" O.Normal
    (Apps.Ghttpd.serve app ~request:(String.make 199 'a'));
  (* char buf[200] with strcpy: exactly 200 bytes already clobbers
     the return address with the NUL terminator -- the classic
     off-by-one. *)
  check_verdict "200 smashes via the NUL" O.Compromised
    (Apps.Ghttpd.serve app ~request:(String.make 200 'a'));
  check_verdict "201 smashes outright" O.Compromised
    (Apps.Ghttpd.serve app ~request:(String.make 201 'a'))

let test_ghttpd_garbage_ret_crashes () =
  let app = Apps.Ghttpd.setup () in
  let d = Apps.Ghttpd.distance_to_ret app in
  (* Fill through the return slot with 'AAAA' = 0x41414141: wild jump. *)
  match Apps.Ghttpd.serve app ~request:(String.make (d + 4) 'A') with
  | O.Crash _ -> ()
  | other -> Alcotest.fail (O.to_string other)

let test_ghttpd_protections () =
  let base = Apps.Ghttpd.vulnerable in
  let attack config =
    let app = Apps.Ghttpd.setup ~config () in
    Apps.Ghttpd.serve app ~request:(Exploit.Attack.ghttpd_request app)
  in
  check_verdict "length check" O.Blocked
    (attack { base with Apps.Ghttpd.length_check = true });
  check_verdict "StackGuard" O.Blocked
    (attack { base with Apps.Ghttpd.protection = Machine.Stack.Stackguard });
  check_verdict "split stack" O.Blocked
    (attack { base with Apps.Ghttpd.protection = Machine.Stack.Split_stack })

let test_ghttpd_model () =
  let app = Apps.Ghttpd.setup () in
  let model = Apps.Ghttpd.model app in
  let attack = Apps.Ghttpd.scenario ~request:(Exploit.Attack.ghttpd_request app) in
  Alcotest.(check bool) "exploited" true
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:attack));
  Alcotest.(check bool) "benign" false
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:Apps.Ghttpd.benign_scenario))

(* ---- rpc.statd --------------------------------------------------- *)

let test_statd_exploit () =
  let app = Apps.Rpc_statd.setup () in
  match Apps.Rpc_statd.notify app ~filename:(Exploit.Attack.rpc_statd_filename app) with
  | O.Code_execution "MCODE" -> ()
  | other -> Alcotest.fail (O.to_string other)

let test_statd_benign () =
  let app = Apps.Rpc_statd.setup () in
  check_verdict "plain filename" O.Normal
    (Apps.Rpc_statd.notify app ~filename:"/var/statmon/sm/web1")

let test_statd_leak () =
  let app = Apps.Rpc_statd.setup () in
  match Apps.Rpc_statd.notify app ~filename:"%8x.%8x" with
  | O.Info_leak _ -> ()
  | other -> Alcotest.fail (O.to_string other)

let test_statd_percent_s_below_base () =
  (* "%s" pops the word "%s\000\000" = 0x7325, below the image base:
     a segfault, where it used to escape as Invalid_argument *)
  let app = Apps.Rpc_statd.setup () in
  match Apps.Rpc_statd.notify app ~filename:"%s" with
  | O.Crash _ -> ()
  | other -> Alcotest.fail (O.to_string other)

let test_statd_stackguard_powerless () =
  (* The %n write skips the canary entirely -- StackGuard does not
     stop format-string return-address rewrites (Section 6). *)
  let config =
    { Apps.Rpc_statd.vulnerable with
      Apps.Rpc_statd.protection = Machine.Stack.Stackguard }
  in
  let app = Apps.Rpc_statd.setup ~config () in
  match Apps.Rpc_statd.notify app ~filename:(Exploit.Attack.rpc_statd_filename app) with
  | O.Code_execution "MCODE" -> ()
  | other -> Alcotest.fail ("StackGuard should not stop %n: " ^ O.to_string other)

let test_statd_protections () =
  let base = Apps.Rpc_statd.vulnerable in
  let attack config =
    let app = Apps.Rpc_statd.setup ~config () in
    Apps.Rpc_statd.notify app ~filename:(Exploit.Attack.rpc_statd_filename app)
  in
  check_verdict "format check" O.Blocked
    (attack { base with Apps.Rpc_statd.format_check = true });
  check_verdict "split stack" O.Blocked
    (attack { base with Apps.Rpc_statd.protection = Machine.Stack.Split_stack })

let test_statd_model () =
  let app = Apps.Rpc_statd.setup () in
  let model = Apps.Rpc_statd.model app in
  let attack =
    Apps.Rpc_statd.scenario ~filename:(Exploit.Attack.rpc_statd_filename app)
  in
  Alcotest.(check bool) "exploited" true
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:attack));
  Alcotest.(check bool) "benign" false
    (Pfsm.Trace.exploited (Pfsm.Model.run model ~env:Apps.Rpc_statd.benign_scenario))

(* ---- Table 2: the classification matrix across all models -------- *)

let test_table2_matrix () =
  let kind_names model =
    List.map
      (fun kind ->
         ( kind,
           List.map
             (fun (_, p) -> p.Pfsm.Primitive.name)
             (List.assoc kind (Pfsm.Analysis.taxonomy_matrix model)) ))
      Pfsm.Taxonomy.all
  in
  let check_model model ~object_type ~content ~reference =
    let m = kind_names model in
    Alcotest.(check (list string)) "object type" object_type
      (List.assoc Pfsm.Taxonomy.Object_type_check m);
    Alcotest.(check (list string)) "content/attribute" content
      (List.assoc Pfsm.Taxonomy.Content_attribute_check m);
    Alcotest.(check (list string)) "reference consistency" reference
      (List.assoc Pfsm.Taxonomy.Reference_consistency_check m)
  in
  (* The rows of Table 2. *)
  check_model (Apps.Sendmail.model (Apps.Sendmail.setup ()))
    ~object_type:[ "pFSM1" ] ~content:[ "pFSM2" ] ~reference:[ "pFSM3" ];
  check_model (Apps.Nullhttpd.model (Apps.Nullhttpd.setup ()))
    ~object_type:[] ~content:[ "pFSM1"; "pFSM2" ] ~reference:[ "pFSM3"; "pFSM4" ];
  check_model (Apps.Rwall.model (Apps.Rwall.setup ()))
    ~object_type:[ "pFSM2" ] ~content:[ "pFSM1" ] ~reference:[];
  check_model (Apps.Iis.model (Apps.Iis.setup ()))
    ~object_type:[] ~content:[ "pFSM1" ] ~reference:[];
  check_model (Apps.Xterm.model ())
    ~object_type:[] ~content:[ "pFSM1" ] ~reference:[ "pFSM2" ];
  check_model (Apps.Ghttpd.model (Apps.Ghttpd.setup ()))
    ~object_type:[] ~content:[ "pFSM1" ] ~reference:[ "pFSM2" ];
  check_model (Apps.Rpc_statd.model (Apps.Rpc_statd.setup ()))
    ~object_type:[] ~content:[ "pFSM1" ] ~reference:[ "pFSM2" ]

let () =
  Alcotest.run "apps"
    [ ("outcome", [ Alcotest.test_case "verdicts" `Quick test_outcome_verdicts ]);
      ("format_interp",
       [ Alcotest.test_case "literal" `Quick test_fmt_literal;
         Alcotest.test_case "pops in order" `Quick test_fmt_pops_args_in_order;
         Alcotest.test_case "width padding" `Quick test_fmt_width_padding;
         Alcotest.test_case "%% escape" `Quick test_fmt_percent_escape;
         Alcotest.test_case "%n writes" `Quick test_fmt_percent_n_writes;
         Alcotest.test_case "%n width control" `Quick
           test_fmt_percent_n_with_width_control;
         Alcotest.test_case "%s dereferences" `Quick test_fmt_s_reads_string;
         Alcotest.test_case "output capped, count exact" `Quick
           test_fmt_output_capped_count_exact ]);
      ("sendmail",
       [ Alcotest.test_case "exploit chain" `Quick test_sendmail_exploit_chain;
         Alcotest.test_case "benign" `Quick test_sendmail_benign;
         Alcotest.test_case "index math" `Quick test_sendmail_index_math;
         Alcotest.test_case "boundaries" `Quick test_sendmail_in_range_write_is_benign;
         Alcotest.test_case "wild negative" `Quick test_sendmail_wild_negative_corrupts;
         Alcotest.test_case "protections" `Quick test_sendmail_protections_block;
         Alcotest.test_case "model trace" `Quick test_sendmail_model_trace;
         Alcotest.test_case "model taxonomy" `Quick test_sendmail_model_taxonomy ]);
      ("nullhttpd",
       [ Alcotest.test_case "#5774" `Quick test_nullhttpd_5774;
         Alcotest.test_case "#6255" `Quick test_nullhttpd_6255;
         Alcotest.test_case "0.5.1 blocks #5774" `Quick test_nullhttpd_0_5_1_blocks_5774;
         Alcotest.test_case "loop fix blocks #6255" `Quick
           test_nullhttpd_loop_fix_blocks_6255;
         Alcotest.test_case "safe unlink blocks" `Quick test_nullhttpd_safe_unlink_blocks;
         Alcotest.test_case "benign posts" `Quick test_nullhttpd_benign_posts;
         Alcotest.test_case "silent corruption" `Quick
           test_nullhttpd_silent_corruption_without_fake_header;
         Alcotest.test_case "usable_for" `Quick test_nullhttpd_usable_for;
         Alcotest.test_case "model verdicts" `Quick test_nullhttpd_model_verdicts ]);
      ("xterm",
       [ Alcotest.test_case "race window" `Quick test_xterm_race_window;
         Alcotest.test_case "passwd overwrite" `Quick
           test_xterm_race_result_is_passwd_overwrite;
         Alcotest.test_case "nofollow blocks" `Quick test_xterm_nofollow_blocks_all;
         Alcotest.test_case "interleaving budget" `Quick test_xterm_interleaving_budget;
         Alcotest.test_case "model" `Quick test_xterm_model ]);
      ("rwall",
       [ Alcotest.test_case "attack" `Quick test_rwall_attack;
         Alcotest.test_case "benign broadcast" `Quick
           test_rwall_benign_broadcast_hits_terminal;
         Alcotest.test_case "protections" `Quick test_rwall_protections;
         Alcotest.test_case "/dev-relative" `Quick test_rwall_dev_relative_resolution;
         Alcotest.test_case "model" `Quick test_rwall_model ]);
      ("iis",
       [ Alcotest.test_case "..%252f escapes" `Quick test_iis_attack_escapes;
         Alcotest.test_case "../ blocked" `Quick test_iis_plain_dotdot_blocked;
         Alcotest.test_case "benign" `Quick test_iis_benign;
         Alcotest.test_case "single decode fix" `Quick test_iis_single_decode_fix;
         Alcotest.test_case "model" `Quick test_iis_model_hidden_path ]);
      ("ghttpd",
       [ Alcotest.test_case "smash" `Quick test_ghttpd_smash;
         Alcotest.test_case "boundary lengths" `Quick test_ghttpd_boundary_lengths;
         Alcotest.test_case "garbage ret crashes" `Quick test_ghttpd_garbage_ret_crashes;
         Alcotest.test_case "protections" `Quick test_ghttpd_protections;
         Alcotest.test_case "model" `Quick test_ghttpd_model ]);
      ("rpc.statd",
       [ Alcotest.test_case "%n exploit" `Quick test_statd_exploit;
         Alcotest.test_case "benign" `Quick test_statd_benign;
         Alcotest.test_case "%x leak" `Quick test_statd_leak;
         Alcotest.test_case "%s below base" `Quick test_statd_percent_s_below_base;
         Alcotest.test_case "StackGuard powerless" `Quick
           test_statd_stackguard_powerless;
         Alcotest.test_case "protections" `Quick test_statd_protections;
         Alcotest.test_case "model" `Quick test_statd_model ]);
      ("table 2", [ Alcotest.test_case "matrix" `Quick test_table2_matrix ]) ]
