(* Figure 3 end-to-end: the Sendmail signed-integer overflow.

   We print the FSM model, run the published exploit through the
   model AND through the simulated process image, watch the GOT entry
   of setuid() get rewritten, and foil the attack three different
   ways — one per elementary activity.

   Run with: dune exec examples/sendmail_analysis.exe *)

let banner title = Format.printf "@.==== %s ====@.@." title

let () =
  let app = Apps.Sendmail.setup () in
  let model = Apps.Sendmail.model app in

  banner "the FSM model (Figure 3)";
  Format.printf "%a@." Pfsm.Pretty.pp_model model;

  banner "the exploit, at the machine level";
  let str_x, str_i = Exploit.Attack.sendmail_inputs app in
  Format.printf "tTvect lives at %s; the GOT slot of setuid at %s@."
    (Machine.Addr.to_string (Apps.Sendmail.tTvect_addr app))
    (Machine.Addr.to_string (Apps.Sendmail.setuid_slot app));
  Format.printf "the attacker runs: sendmail -d%s.%s@." str_x str_i;
  Format.printf "  str_x wraps to array index %d (4 * %d below tTvect)@."
    (Apps.Sendmail.exploit_index app)
    (- Apps.Sendmail.exploit_index app);
  let o1 = Apps.Sendmail.tTflag app ~str_x ~str_i in
  Format.printf "  tTflag outcome: %a@." Apps.Outcome.pp o1;
  let got = Machine.Process.got (Apps.Sendmail.proc app) in
  Format.printf "  GOT entry of setuid unchanged? %b@."
    (Machine.Got.unchanged got "setuid");
  let o2 = Apps.Sendmail.call_setuid app in
  Format.printf "  calling setuid(): %a@." Apps.Outcome.pp o2;

  banner "the same exploit, through the model";
  let scenario = Apps.Sendmail.exploit_scenario app in
  let trace = Pfsm.Model.run model ~env:scenario in
  Format.printf "%a@." Pfsm.Trace.pp trace;

  banner "foiling it at each elementary activity";
  let foil label config =
    let hardened = Apps.Sendmail.setup ~config () in
    let str_x, str_i = Exploit.Attack.sendmail_inputs hardened in
    Format.printf "  %-44s -> %a@." label Apps.Outcome.pp
      (Apps.Sendmail.run_attack hardened ~str_x ~str_i)
  in
  let base = Apps.Sendmail.vulnerable in
  foil "activity 1: check str_x is representable" { base with input_check = true };
  foil "activity 2: enforce 0 <= x <= 100" { base with full_index_check = true };
  foil "activity 3: audit the GOT before the call" { base with got_audit = true };

  banner "the lemma, mechanically";
  let checks = Pfsm.Lemma.sufficiency model ~scenarios:[ scenario ] in
  List.iter
    (fun (c : Pfsm.Lemma.check) ->
       Format.printf "secure %-40s => exploit %s@." c.op_name
         (if c.foiled then "FOILED" else "still succeeds (!)"))
    checks
