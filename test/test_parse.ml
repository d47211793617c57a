(* Tests for the predicate parser: units, error reporting, and the
   pretty-printer/parser round-trip property. *)

module P = Pfsm.Predicate
module Parse = Pfsm.Parse

let ok src =
  match Parse.predicate src with
  | Ok p -> p
  | Error e ->
      Alcotest.fail (Printf.sprintf "%s: at %d: %s" src e.Parse.position e.Parse.message)

let err src =
  match Parse.predicate src with
  | Ok p -> Alcotest.fail (src ^ " parsed to " ^ P.to_string p)
  | Error e -> e

(* ---- units -------------------------------------------------------- *)

let test_parse_paper_predicates () =
  (* Every predicate shape the figures use. *)
  List.iter
    (fun (src, expected) -> Alcotest.(check string) src expected (P.to_string (ok src)))
    [ ("(self >= 0 && self <= 100)", "(self >= 0 && self <= 100)");
      ("self <= 100", "self <= 100");
      ("fits_int32(self)", "fits_int32(self)");
      ("!(contains(decode^2(self), \"../\"))", "!(contains(decode^2(self), \"../\"))");
      ("length(self) <= env[buffer.size]", "length(self) <= env[buffer.size]");
      ("env[chunkB.links.unchanged]", "env[chunkB.links.unchanged]");
      ("env[target.kind] == \"terminal\"", "env[target.kind] == \"terminal\"");
      ("format_free(self)", "format_free(self)");
      ("self == 0x00010000", "self == 0x00010000");
      ("true", "true");
      ("false", "false") ]

let test_parse_evaluates_correctly () =
  let p = ok "(self >= 0 && self <= 100)" in
  Alcotest.(check bool) "50 in" true
    (P.holds ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int 50) p);
  Alcotest.(check bool) "-1 out" false
    (P.holds ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Int (-1)) p);
  let q = ok "contains_any(self, [\"%n\"; \"%x\"])" in
  Alcotest.(check bool) "%x hits" true
    (P.holds ~env:Pfsm.Env.empty ~self:(Pfsm.Value.Str "a%xb") q)

let test_parse_precedence () =
  (* && binds tighter than ||. *)
  let p = ok "true || false && false" in
  Alcotest.(check bool) "or of and" true
    (P.holds ~env:Pfsm.Env.empty ~self:Pfsm.Value.Unit p);
  match p with
  | P.Or (P.True, P.And (P.False, P.False)) -> ()
  | other -> Alcotest.fail (P.to_string other)

let test_parse_negative_literals () =
  match ok "self >= -800" with
  | P.Cmp (P.Ge, P.Self, P.Lit (Pfsm.Value.Int -800)) -> ()
  | other -> Alcotest.fail (P.to_string other)

let test_parse_string_escapes () =
  match ok "contains(self, \"a\\\"b\")" with
  | P.Contains (P.Self, needle) -> Alcotest.(check string) "escape" "a\"b" needle
  | other -> Alcotest.fail (P.to_string other)

let test_parse_errors_have_positions () =
  let e = err "self >" in
  Alcotest.(check bool) "position points past the operator" true (e.Parse.position >= 5);
  let e = err "self <= 100 garbage" in
  Alcotest.(check string) "trailing input" "trailing input" e.Parse.message;
  let e = err "contains(self" in
  Alcotest.(check bool) "message nonempty" true (String.length e.Parse.message > 0);
  ignore (err "\"unterminated");
  ignore (err "@@@")

(* An integer literal outside the int range is a located error, not a
   wrapped value; every integer and address [Value.pp] prints, extremes
   included, parses back to the same value. *)
let test_parse_literal_range () =
  let e = err "self > 99999999999999999999" in
  Alcotest.(check (pair int string)) "decimal overflow" (7, "integer literal out of range")
    (e.Parse.position, e.Parse.message);
  let e = err "self == 0x10000000000000001" in
  Alcotest.(check (pair int string)) "hex overflow" (8, "hex literal wider than 63 bits")
    (e.Parse.position, e.Parse.message);
  ignore (err "self > 4611686018427387904");
  List.iter
    (fun (src, message) ->
       let e = err src in
       Alcotest.(check (pair int string)) src (8, message)
         (e.Parse.position, e.Parse.message))
    [ ("self == 0x", "expected hex digits");
      ({|self == "a\q"|}, "bad escape in string literal");
      ({|self == "\999"|}, "bad escape in string literal");
      ({|self == "a\"|}, "unterminated string") ];
  List.iter
    (fun v ->
       let p = P.Cmp (P.Eq, P.Self, P.Lit v) in
       Alcotest.(check bool) (P.to_string p) true (ok (P.to_string p) = p))
    Pfsm.Value.
      [ Int max_int; Int min_int; Int 0; Addr 0; Addr max_int; Addr min_int;
        Addr (-1) ]

(* 30,000 nested negations of [self > 0], the form [Predicate.pp]
   prints, parse, build a pFSM and verify in well under a second. *)
let test_parse_deep_nesting () =
  let depth = 30_000 in
  let src =
    String.concat "" (List.init depth (fun _ -> "!("))
    ^ "self > 0" ^ String.make depth ')'
  in
  let spec = ok src in
  let pfsm =
    Pfsm.Primitive.make ~name:"deep" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"deep negation" ~spec ~impl:(ok "self > 0")
  in
  match Pfsm.Verify.verify pfsm (Pfsm.Verify.Int_range { low = -8; high = 8 }) with
  | Pfsm.Verify.Verified _ -> ()
  | r -> Alcotest.fail (Format.asprintf "%a" Pfsm.Verify.pp_result r)

let test_parse_term_standalone () =
  (match Parse.term "decode^2(env[path])" with
   | Ok (P.Decode (2, P.Env_val "path")) -> ()
   | Ok t -> Alcotest.fail (Format.asprintf "%a" P.pp_term t)
   | Error _ -> Alcotest.fail "no parse");
  match Parse.term "length(self)" with
  | Ok (P.Length P.Self) -> ()
  | _ -> Alcotest.fail "length"

let test_parse_exn () =
  (match Parse.predicate_exn "true" with P.True -> () | _ -> Alcotest.fail "true");
  match Parse.predicate_exn "((" with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ()

(* ---- roundtrip on every model predicate --------------------------- *)

let all_model_predicates () =
  let models =
    [ Apps.Sendmail.model (Apps.Sendmail.setup ());
      Apps.Nullhttpd.model (Apps.Nullhttpd.setup ());
      Apps.Xterm.model ();
      Apps.Rwall.model (Apps.Rwall.setup ());
      Apps.Iis.model (Apps.Iis.setup ());
      Apps.Ghttpd.model (Apps.Ghttpd.setup ());
      Apps.Rpc_statd.model (Apps.Rpc_statd.setup ());
      Apps.Int_overflow_pattern.model ();
      Apps.Buffer_overflow_pattern.model ();
      Apps.Format_string_pattern.model () ]
  in
  List.concat_map
    (fun m ->
       List.concat_map
         (fun (_, p) -> [ p.Pfsm.Primitive.spec; p.Pfsm.Primitive.impl ])
         (Pfsm.Model.all_pfsms m))
    models

let test_roundtrip_all_model_predicates () =
  let preds = all_model_predicates () in
  Alcotest.(check bool) "plenty of predicates" true (List.length preds >= 40);
  List.iter
    (fun p ->
       Alcotest.(check bool) (P.to_string p) true (Parse.roundtrips p))
    preds

(* ---- roundtrip property over random predicates -------------------- *)

let gen_pred =
  let open QCheck.Gen in
  let gen_key = oneofl [ "k"; "buffer.size"; "got.unchanged" ] in
  let gen_needle = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 6) in
  let gen_term =
    oneof
      [ return P.Self;
        map (fun k -> P.Env_val k) gen_key;
        map (fun n -> P.Lit (Pfsm.Value.Int n)) (int_range (-1000) 1000);
        return (P.Length P.Self);
        map (fun n -> P.Decode (n, P.Self)) (int_range 0 3) ]
  in
  let gen_cmp = oneofl [ P.Le; P.Lt; P.Eq; P.Ne; P.Ge; P.Gt ] in
  let gen_atom =
    oneof
      [ return P.True;
        return P.False;
        map3 (fun op a b -> P.Cmp (op, a, b)) gen_cmp gen_term gen_term;
        map2 (fun t needle -> P.Contains (t, needle)) gen_term gen_needle;
        map (fun t -> P.Fits_int32 t) gen_term;
        map (fun t -> P.Is_format_free t) gen_term;
        map (fun k -> P.Env_flag k) gen_key;
        map2 (fun t needles -> P.Contains_any (t, needles)) gen_term
          (list_size (int_range 1 3) gen_needle) ]
  in
  let rec build depth =
    if depth = 0 then gen_atom
    else
      frequency
        [ (3, gen_atom);
          (1, map (fun p -> P.Not p) (build (depth - 1)));
          (1, map2 (fun a b -> P.And (a, b)) (build (depth - 1)) (build (depth - 1)));
          (1, map2 (fun a b -> P.Or (a, b)) (build (depth - 1)) (build (depth - 1))) ]
  in
  build 4

let prop_parser_roundtrip =
  QCheck.Test.make ~name:"parse: pp then parse is the identity (rendered)" ~count:500
    (QCheck.make ~print:P.to_string gen_pred)
    Parse.roundtrips

let () =
  Alcotest.run "parse"
    [ ("units",
       [ Alcotest.test_case "paper predicates" `Quick test_parse_paper_predicates;
         Alcotest.test_case "evaluates" `Quick test_parse_evaluates_correctly;
         Alcotest.test_case "precedence" `Quick test_parse_precedence;
         Alcotest.test_case "negative literals" `Quick test_parse_negative_literals;
         Alcotest.test_case "string escapes" `Quick test_parse_string_escapes;
         Alcotest.test_case "error positions" `Quick test_parse_errors_have_positions;
         Alcotest.test_case "literal range" `Quick test_parse_literal_range;
         Alcotest.test_case "deep nesting" `Quick test_parse_deep_nesting;
         Alcotest.test_case "terms" `Quick test_parse_term_standalone;
         Alcotest.test_case "exn variant" `Quick test_parse_exn ]);
      ("roundtrip",
       [ Alcotest.test_case "all model predicates" `Quick
           test_roundtrip_all_model_predicates;
         QCheck_alcotest.to_alcotest prop_parser_roundtrip ]) ]
