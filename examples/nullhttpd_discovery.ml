(* The NULL HTTPD story (Figure 4): model the known heap overflow
   (#5774), and in doing so discover the new one (#6255) — exactly
   the sequence of events the paper reports, reproduced mechanically.

   Run with: dune exec examples/nullhttpd_discovery.exe *)

let banner title = Format.printf "@.==== %s ====@.@." title

let () =
  banner "step 1: the known vulnerability, #5774 against v0.5";
  let v05 = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.vulnerable_v0_5 () in
  let content_len, body = Exploit.Attack.nullhttpd_5774 v05 in
  Format.printf "POST with Content-Length: %d and a %d-byte body@." content_len
    (String.length body);
  Format.printf
    "  (B->fd = &addr_free - (offset of field bk); B->bk = Mcode; the unlink \
     B->fd->bk = B->bk then writes Mcode over the GOT entry of free())@.";
  Format.printf "  -> %a@." Apps.Outcome.pp
    (Apps.Nullhttpd.handle_post v05 ~content_len ~body);

  banner "step 2: v0.5.1 fixes the negative Content-Length";
  let v051 = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let content_len, body = Exploit.Attack.nullhttpd_5774 v051 in
  Format.printf "the same attack -> %a@." Apps.Outcome.pp
    (Apps.Nullhttpd.handle_post v051 ~content_len ~body);

  banner "step 3: building the FSM model exposes pFSM2's missing check";
  let model = Apps.Nullhttpd.model v051 in
  Format.printf "%a@." Pfsm.Pretty.pp_model model;

  banner "step 4: differential sweep rediscovers #6255";
  (match Discovery.Differential.rediscover_6255 () with
   | Some finding -> Format.printf "%a@." Discovery.Finding.pp finding
   | None -> print_endline "no divergence found (unexpected)");

  banner "step 5: weaponising it -- correct contentLen, oversized body";
  let v051' = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.v0_5_1 () in
  let content_len, body = Exploit.Attack.nullhttpd_6255 v051' in
  Format.printf "POST with Content-Length: %d and a %d-byte body -> %a@." content_len
    (String.length body) Apps.Outcome.pp
    (Apps.Nullhttpd.handle_post v051' ~content_len ~body);

  banner "step 6: the && fix closes it";
  let fixed = Apps.Nullhttpd.setup ~config:Apps.Nullhttpd.fully_fixed () in
  let content_len, body = Exploit.Attack.nullhttpd_6255 fixed in
  Format.printf "the same attack -> %a@." Apps.Outcome.pp
    (Apps.Nullhttpd.handle_post fixed ~content_len ~body);
  Format.printf "sweep against the fixed build finds no divergence: %b@."
    (Discovery.Differential.confirm_fix ())
