(* Tests for the core pFSM formalism: values, environments, string
   codecs, predicates, the primitive FSM semantics, operations,
   models, witness search, analysis, the lemma, and dot export. *)

module P = Pfsm.Predicate
module V = Pfsm.Value
module E = Pfsm.Env
module Prim = Pfsm.Primitive
module Sc = Pfsm.Strcodec

(* ---- value ------------------------------------------------------- *)

let test_value_equal () =
  Alcotest.(check bool) "int eq" true (V.equal (V.Int 3) (V.Int 3));
  Alcotest.(check bool) "int ne" false (V.equal (V.Int 3) (V.Int 4));
  Alcotest.(check bool) "cross-type" false (V.equal (V.Int 3) (V.Str "3"));
  Alcotest.(check bool) "unit" true (V.equal V.Unit V.Unit)

let test_value_projections () =
  Alcotest.(check int) "as_int" 7 (V.as_int (V.Int 7));
  Alcotest.(check string) "as_str" "x" (V.as_str (V.Str "x"));
  match V.as_int (V.Str "no") with
  | _ -> Alcotest.fail "projection should fail"
  | exception Invalid_argument _ -> ()

(* ---- env --------------------------------------------------------- *)

let test_env_basics () =
  let e = E.empty |> E.add_int "x" 5 |> E.add_str "s" "hi" |> E.add_bool "f" true in
  Alcotest.(check int) "int" 5 (E.get_int "x" e);
  Alcotest.(check string) "str" "hi" (E.get_str "s" e);
  Alcotest.(check bool) "flag true" true (E.flag "f" e);
  Alcotest.(check bool) "flag absent defaults false" false (E.flag "nope" e);
  match E.get "missing" e with
  | _ -> Alcotest.fail "expected Not_found_key"
  | exception E.Not_found_key "missing" -> ()
  | exception _ -> Alcotest.fail "wrong exception"

let test_env_shadowing () =
  let e = E.empty |> E.add_int "x" 1 |> E.add_int "x" 2 in
  Alcotest.(check int) "last add wins" 2 (E.get_int "x" e)

(* ---- strcodec ---------------------------------------------------- *)

let test_decode_once () =
  Alcotest.(check string) "%2f" "../" (Sc.percent_decode "..%2f");
  Alcotest.(check string) "%25 then 2f" "..%2f" (Sc.percent_decode "..%252f");
  Alcotest.(check string) "untouched" "plain" (Sc.percent_decode "plain");
  Alcotest.(check string) "malformed passes through" "%zz" (Sc.percent_decode "%zz");
  Alcotest.(check string) "trailing percent" "a%" (Sc.percent_decode "a%")

let test_decode_twice () =
  Alcotest.(check string) "the IIS case" "../"
    (Sc.percent_decode_n 2 "..%252f");
  Alcotest.(check string) "n=0 is identity" "..%252f" (Sc.percent_decode_n 0 "..%252f")

let test_parse_integer () =
  Alcotest.(check (option int)) "plain" (Some 42) (Sc.parse_integer "42");
  Alcotest.(check (option int)) "negative" (Some (-7)) (Sc.parse_integer "-7");
  Alcotest.(check (option int)) "plus" (Some 9) (Sc.parse_integer "+9");
  Alcotest.(check (option int)) "junk" None (Sc.parse_integer "12ab");
  Alcotest.(check (option int)) "empty" None (Sc.parse_integer "");
  Alcotest.(check (option int)) "big" (Some 4294967200) (Sc.parse_integer "4294967200")

let test_atoi32_wrap () =
  Alcotest.(check int) "in range" 100 (Sc.atoi32 "100");
  Alcotest.(check int) "leading spaces" 7 (Sc.atoi32 "  7");
  Alcotest.(check int) "junk is zero" 0 (Sc.atoi32 "abc");
  Alcotest.(check int) "prefix parse" 12 (Sc.atoi32 "12ab");
  (* The Sendmail attack value: 2^32 - 1024 wraps to -1024. *)
  Alcotest.(check int) "wraps negative" (-1024) (Sc.atoi32 "4294966272");
  Alcotest.(check int) "2^31 wraps" (-0x80000000) (Sc.atoi32 "2147483648")

let test_fits_int32 () =
  Alcotest.(check bool) "max" true (Sc.fits_int32 0x7fffffff);
  Alcotest.(check bool) "min" true (Sc.fits_int32 (-0x80000000));
  Alcotest.(check bool) "max+1" false (Sc.fits_int32 0x80000000)

let test_format_directives () =
  Alcotest.(check (list string)) "mixed" [ "%x"; "%n" ] (Sc.format_directives "a%xb%n");
  Alcotest.(check (list string)) "width" [ "%x" ] (Sc.format_directives "%08x");
  Alcotest.(check (list string)) "escaped percent skipped" []
    (Sc.format_directives "100%% legit");
  Alcotest.(check bool) "detector" true (Sc.contains_format_directive "%n");
  Alcotest.(check bool) "clean" false (Sc.contains_format_directive "hello world")

let prop_decode_idempotent_on_clean =
  let open QCheck in
  Test.make ~name:"strcodec: decoding a %-free string is the identity" ~count:200
    (string_gen (Gen.char_range 'a' 'z'))
    (fun s -> Sc.percent_decode s = s)

let prop_encode_decode_roundtrip =
  let open QCheck in
  Test.make ~name:"strcodec: percent_decode inverts percent_encode" ~count:300 string
    (fun s -> Sc.percent_decode (Sc.percent_encode s) = s)

(* Stopping at the first pass that changes nothing gives what the plain
   n-pass loop gives, over strings made of escapes' own bytes. *)
let prop_decode_n_equals_n_passes =
  let open QCheck in
  let byte =
    Gen.frequency
      [ (3, Gen.return '%'); (2, Gen.oneofl [ '2'; '5' ]);
        (3, Gen.oneofl [ '0'; '9'; 'a'; 'f'; 'A'; 'F' ]); (1, Gen.return '/') ]
  in
  Test.make ~name:"strcodec: percent_decode_n n = n passes, n <= 8" ~count:500
    (pair (int_bound 8) (string_gen_of_size (Gen.int_bound 24) byte))
    (fun (n, s) ->
       let rec passes k acc =
         if k = 0 then acc else passes (k - 1) (Sc.percent_decode acc)
       in
       Sc.percent_decode_n n s = passes n s)

let test_percent_encode_units () =
  Alcotest.(check string) "unreserved untouched" "a/b.c" (Sc.percent_encode "a/b.c");
  Alcotest.(check string) "space and percent" "a%20b%25" (Sc.percent_encode "a b%");
  Alcotest.(check string) "dotdot attack survives a roundtrip" "..%252f"
    (Sc.percent_decode (Sc.percent_encode "..%252f"))

let prop_wrap32_fixed_point =
  let open QCheck in
  Test.make ~name:"strcodec: wrap32 is a fixed point on int32 values" ~count:200
    (int_range (-0x80000000) 0x7fffffff)
    (fun v -> Sc.wrap32 v = v && Sc.fits_int32 (Sc.wrap32 (v * 3)))

(* ---- predicates -------------------------------------------------- *)

let holds ?(env = E.empty) ~self p = P.holds ~env ~self p

let test_pred_between () =
  let p = P.between P.Self ~low:0 ~high:100 in
  Alcotest.(check bool) "0" true (holds ~self:(V.Int 0) p);
  Alcotest.(check bool) "100" true (holds ~self:(V.Int 100) p);
  Alcotest.(check bool) "101" false (holds ~self:(V.Int 101) p);
  Alcotest.(check bool) "-1" false (holds ~self:(V.Int (-1)) p)

let test_pred_length_and_env () =
  let env = E.add_int "buffer.size" 10 E.empty in
  let p = P.Cmp (P.Le, P.Length P.Self, P.Env_val "buffer.size") in
  Alcotest.(check bool) "fits" true (P.holds ~env ~self:(V.Str "short") p);
  Alcotest.(check bool) "overflows" false
    (P.holds ~env ~self:(V.Str "0123456789A") p)

let test_pred_contains_decode () =
  let spec = P.Not (P.Contains (P.Decode (2, P.Self), "../")) in
  let impl = P.Not (P.Contains (P.Decode (1, P.Self), "../")) in
  let attack = V.Str "..%252fx" in
  Alcotest.(check bool) "spec rejects" false (holds ~self:attack spec);
  Alcotest.(check bool) "impl accepts" true (holds ~self:attack impl)

let test_pred_fits_int32_on_strings () =
  Alcotest.(check bool) "small" true (holds ~self:(V.Str "42") (P.Fits_int32 P.Self));
  Alcotest.(check bool) "huge" false
    (holds ~self:(V.Str "4294966272") (P.Fits_int32 P.Self));
  Alcotest.(check bool) "non-numeric treated as not-representable" false
    (holds ~self:(V.Str "4ab") (P.Fits_int32 P.Self))

let test_pred_format_free () =
  Alcotest.(check bool) "clean" true (holds ~self:(V.Str "file") (P.Is_format_free P.Self));
  Alcotest.(check bool) "%n" false (holds ~self:(V.Str "a%nb") (P.Is_format_free P.Self))

let test_pred_type_error () =
  match holds ~self:(V.Int 3) (P.Contains (P.Self, "x")) with
  | _ -> Alcotest.fail "expected type error"
  | exception P.Type_error _ -> ()

let test_pred_holds_safely () =
  Alcotest.(check (option bool)) "ill-typed is None" None
    (P.holds_safely ~env:E.empty ~self:(V.Int 3) (P.Contains (P.Self, "x")));
  Alcotest.(check (option bool)) "missing env key is None" None
    (P.holds_safely ~env:E.empty ~self:V.Unit (P.Cmp (P.Eq, P.Env_val "k", P.Lit (V.Int 1))));
  Alcotest.(check (option bool)) "fine" (Some true)
    (P.holds_safely ~env:E.empty ~self:(V.Int 1) P.True)

let test_pred_connectives () =
  let t = P.True and f = P.False in
  Alcotest.(check bool) "and" false (holds ~self:V.Unit (P.And (t, f)));
  Alcotest.(check bool) "or" true (holds ~self:V.Unit (P.Or (f, t)));
  Alcotest.(check bool) "not" true (holds ~self:V.Unit (P.Not f));
  Alcotest.(check bool) "conj []" true (holds ~self:V.Unit (P.conj []));
  Alcotest.(check bool) "disj []" false (holds ~self:V.Unit (P.disj []))

let test_pred_pp () =
  let p = P.between P.Self ~low:0 ~high:100 in
  Alcotest.(check string) "renders like the paper"
    "(self >= 0 && self <= 100)" (P.to_string p)

(* ---- primitive FSM ----------------------------------------------- *)

let simple_pfsm ?(impl = P.True) () =
  Prim.make ~name:"p" ~kind:Pfsm.Taxonomy.Content_attribute_check ~activity:"check x"
    ~spec:(P.between P.Self ~low:0 ~high:100) ~impl

let test_primitive_spec_accept () =
  let v = Prim.run (simple_pfsm ()) ~env:E.empty ~self:(V.Int 50) in
  Alcotest.(check bool) "accepted" true (v.Prim.final = Prim.Accept_state);
  Alcotest.(check bool) "no hidden" false v.Prim.hidden;
  Alcotest.(check bool) "via SPEC_ACPT" true (v.Prim.path = [ Prim.Spec_acpt ])

let test_primitive_hidden_path () =
  let v = Prim.run (simple_pfsm ()) ~env:E.empty ~self:(V.Int (-5)) in
  Alcotest.(check bool) "accepted anyway" true (v.Prim.final = Prim.Accept_state);
  Alcotest.(check bool) "hidden" true v.Prim.hidden;
  Alcotest.(check bool) "via IMPL_ACPT" true
    (v.Prim.path = [ Prim.Spec_rej; Prim.Impl_acpt ])

let test_primitive_impl_reject () =
  let pfsm = simple_pfsm ~impl:(P.Cmp (P.Le, P.Self, P.Lit (V.Int 100))) () in
  let v = Prim.run pfsm ~env:E.empty ~self:(V.Int 101) in
  Alcotest.(check bool) "rejected" true (v.Prim.final = Prim.Reject_state);
  Alcotest.(check bool) "via IMPL_REJ" true
    (v.Prim.path = [ Prim.Spec_rej; Prim.Impl_rej ])

let test_primitive_secured () =
  let pfsm = Prim.secured (simple_pfsm ()) in
  let v = Prim.run pfsm ~env:E.empty ~self:(V.Int (-5)) in
  Alcotest.(check bool) "now rejected" true (v.Prim.final = Prim.Reject_state);
  Alcotest.(check bool) "missing_check cleared" false (Prim.missing_check pfsm)

let test_primitive_missing_check () =
  Alcotest.(check bool) "no check" true (Prim.missing_check (simple_pfsm ()));
  Alcotest.(check bool) "has check" false
    (Prim.missing_check (simple_pfsm ~impl:P.False ()))

(* Property: the Figure-2 semantics, exhaustively -- hidden iff
   impl accepts and spec rejects. *)
let prop_primitive_semantics =
  let open QCheck in
  Test.make ~name:"primitive: hidden <=> impl-accepts && spec-rejects" ~count:500
    (pair (int_range (-200) 200) (int_range (-200) 200))
    (fun (bound, x) ->
       let pfsm =
         Prim.make ~name:"q" ~kind:Pfsm.Taxonomy.Object_type_check ~activity:"a"
           ~spec:(P.between P.Self ~low:0 ~high:100)
           ~impl:(P.Cmp (P.Le, P.Self, P.Lit (V.Int bound)))
       in
       let spec_ok = 0 <= x && x <= 100 in
       let impl_ok = x <= bound in
       let v = Prim.run pfsm ~env:E.empty ~self:(V.Int x) in
       let accepted = v.Prim.final = Prim.Accept_state in
       accepted = (spec_ok || impl_ok)
       && v.Prim.hidden = ((not spec_ok) && impl_ok))

(* ---- operation / model / trace ----------------------------------- *)

(* A toy cascade modelled after the paper's shape: operation 1 checks
   an index and flips an env fact when a violating index completes;
   operation 2's reference check consults that fact. *)
let toy_model ?(impl1 = P.Cmp (P.Le, P.Self, P.Lit (V.Int 100))) ?(impl2 = P.True) () =
  let pfsm1 =
    Prim.make ~name:"pFSM1" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"index check" ~spec:(P.between P.Self ~low:0 ~high:100) ~impl:impl1
  in
  let effect1 env =
    E.add_bool "ref.unchanged" (E.get_int "x" env >= 0) env
  in
  let record env obj = (E.add_int "x" (V.as_int obj) env, obj) in
  let op1 =
    Pfsm.Operation.make ~name:"op1" ~object_name:"x" ~effect_label:"write"
      ~effect_:effect1
      [ Pfsm.Operation.stage ~action:record pfsm1 ]
  in
  let pfsm2 =
    Prim.make ~name:"pFSM2" ~kind:Pfsm.Taxonomy.Reference_consistency_check
      ~activity:"ref check" ~spec:(P.Env_flag "ref.unchanged") ~impl:impl2
  in
  let op2 =
    Pfsm.Operation.make ~name:"op2" ~object_name:"ref" ~effect_label:"execute"
      [ Pfsm.Operation.stage pfsm2 ]
  in
  Pfsm.Model.make ~name:"toy" ~description:"toy cascade"
    [ Pfsm.Model.bind ~input:(fun env -> E.get "input" env) ~input_label:"x" op1;
      Pfsm.Model.bind ~input:(fun _ -> V.Unit) ~input_label:"ref" op2 ]

let scenario x = E.add "input" (V.Int x) E.empty

let test_model_benign_run () =
  let trace = Pfsm.Model.run (toy_model ()) ~env:(scenario 50) in
  Alcotest.(check bool) "completed" true trace.Pfsm.Trace.completed;
  Alcotest.(check int) "no hidden" 0 (Pfsm.Trace.hidden_count trace);
  Alcotest.(check bool) "not exploited" false (Pfsm.Trace.exploited trace)

let test_model_exploit_run () =
  let trace = Pfsm.Model.run (toy_model ()) ~env:(scenario (-3)) in
  Alcotest.(check bool) "completed" true trace.Pfsm.Trace.completed;
  Alcotest.(check int) "hidden twice" 2 (Pfsm.Trace.hidden_count trace);
  Alcotest.(check bool) "exploited" true (Pfsm.Trace.exploited trace)

let test_model_rejection_stops_cascade () =
  let model = toy_model ~impl1:(P.between P.Self ~low:0 ~high:100) () in
  let trace = Pfsm.Model.run model ~env:(scenario (-3)) in
  Alcotest.(check bool) "foiled" true (Pfsm.Trace.foiled trace);
  (match trace.Pfsm.Trace.stopped_at with
   | Some ("op1", "pFSM1") -> ()
   | _ -> Alcotest.fail "wrong stop site");
  Alcotest.(check int) "only one step ran" 1 (List.length trace.Pfsm.Trace.steps)

let test_model_secure_operation () =
  let hardened = Pfsm.Model.secure_operation (toy_model ()) ~op_name:"op2" in
  let trace = Pfsm.Model.run hardened ~env:(scenario (-3)) in
  Alcotest.(check bool) "op2 now rejects" true (Pfsm.Trace.foiled trace)

let test_model_secure_unknown_operation () =
  match Pfsm.Model.secure_operation (toy_model ()) ~op_name:"nope" with
  | _ -> Alcotest.fail "unknown op accepted"
  | exception Invalid_argument _ -> ()

let test_model_all_pfsms () =
  let names = List.map (fun (_, p) -> p.Prim.name) (Pfsm.Model.all_pfsms (toy_model ())) in
  Alcotest.(check (list string)) "cascade order" [ "pFSM1"; "pFSM2" ] names

(* ---- witness ----------------------------------------------------- *)

let test_witness_search () =
  let pfsm = simple_pfsm () in
  let candidates =
    List.map (fun x -> Pfsm.Witness.candidate (V.Int x)) [ -5; 0; 50; 100; 101; 200 ]
  in
  let hidden = Pfsm.Witness.hidden_witnesses pfsm ~candidates in
  (* impl = True accepts everything, so every spec-rejected value is
     a hidden witness: -5, 101, 200. *)
  Alcotest.(check int) "three witnesses" 3 (List.length hidden);
  Alcotest.(check bool) "not correctly implemented" false
    (Pfsm.Witness.correctly_implemented pfsm ~candidates);
  Alcotest.(check bool) "secured is clean" true
    (Pfsm.Witness.correctly_implemented (Prim.secured pfsm) ~candidates)

let test_witness_overstrict () =
  let pfsm = simple_pfsm ~impl:(P.between P.Self ~low:10 ~high:90) () in
  let candidates = List.map (fun x -> Pfsm.Witness.candidate (V.Int x)) [ 5; 50; 95 ] in
  Alcotest.(check int) "5 and 95 are overstrict" 2
    (List.length (Pfsm.Witness.overstrict_witnesses pfsm ~candidates))

let test_witness_skips_ill_typed () =
  let pfsm = simple_pfsm () in
  let candidates = [ Pfsm.Witness.candidate (V.Str "not an int") ] in
  Alcotest.(check int) "skipped" 0
    (List.length (Pfsm.Witness.hidden_witnesses pfsm ~candidates))

(* ---- analysis ---------------------------------------------------- *)

let test_analysis_findings () =
  let model = toy_model () in
  let report = Pfsm.Analysis.analyze model ~scenarios:[ scenario (-3); scenario 50 ] in
  Alcotest.(check int) "scenarios" 2 report.Pfsm.Analysis.scenarios_run;
  Alcotest.(check int) "one exploited" 1 (List.length (Pfsm.Analysis.exploited report));
  let vulnerable = Pfsm.Analysis.vulnerable_operations report in
  Alcotest.(check (list string)) "both ops vulnerable" [ "op1"; "op2" ] vulnerable;
  let checks = Pfsm.Analysis.security_checks report in
  Alcotest.(check int) "two checks to add" 2 (List.length checks)

let test_analysis_taxonomy_matrix () =
  let matrix = Pfsm.Analysis.taxonomy_matrix (toy_model ()) in
  let count kind =
    match List.assoc_opt kind matrix with
    | Some cells -> List.length cells
    | None -> -1
  in
  Alcotest.(check int) "content" 1 (count Pfsm.Taxonomy.Content_attribute_check);
  Alcotest.(check int) "reference" 1 (count Pfsm.Taxonomy.Reference_consistency_check);
  Alcotest.(check int) "object (empty bucket present)" 0
    (count Pfsm.Taxonomy.Object_type_check)

(* ---- lemma ------------------------------------------------------- *)

let test_lemma_sufficiency () =
  let model = toy_model () in
  let checks = Pfsm.Lemma.sufficiency model ~scenarios:[ scenario (-3) ] in
  Alcotest.(check int) "both vulnerable ops checked" 2 (List.length checks);
  Alcotest.(check bool) "lemma holds" true (Pfsm.Lemma.holds model ~scenarios:[ scenario (-3) ])

let test_lemma_pfsm_sufficiency () =
  let model = toy_model () in
  let checks = Pfsm.Lemma.pfsm_sufficiency model ~scenarios:[ scenario (-3) ] in
  Alcotest.(check int) "both sites" 2 (List.length checks);
  Alcotest.(check bool) "each single pFSM fix foils" true
    (List.for_all (fun c -> c.Pfsm.Lemma.foiled) checks)

let test_lemma_full_security () =
  Alcotest.(check bool) "secure_all kills all exploits" true
    (Pfsm.Lemma.full_security (toy_model ())
       ~scenarios:[ scenario (-3); scenario 50; scenario 1000 ])

(* Property: for random violating inputs, the lemma holds on the toy
   cascade regardless of where the violation lands. *)
let prop_lemma_random_inputs =
  let open QCheck in
  Test.make ~name:"lemma: securing any hidden operation foils the exploit" ~count:200
    (int_range (-1000) 1000)
    (fun x -> Pfsm.Lemma.holds (toy_model ()) ~scenarios:[ scenario x ])

(* ---- taxonomy / dot / pretty ------------------------------------- *)

let test_taxonomy_strings () =
  Alcotest.(check int) "three kinds" 3 (List.length Pfsm.Taxonomy.all);
  List.iter
    (fun k ->
       Alcotest.(check bool)
         (Pfsm.Taxonomy.to_string k ^ " has description")
         true
         (String.length (Pfsm.Taxonomy.description k) > 0))
    Pfsm.Taxonomy.all

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn > 0 && at 0

let test_dot_output () =
  let dot = Pfsm.Dot.of_model (toy_model ()) in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle dot))
    [ "digraph"; "SPEC_ACPT"; "IMPL_ACPT"; "style=dotted"; "cluster_op0"; "triangle" ];
  let single = Pfsm.Dot.of_primitive (simple_pfsm ()) in
  Alcotest.(check bool) "single pFSM digraph" true (contains ~needle:"digraph" single)

let test_dot_secured_has_no_hidden_edge () =
  let model = Pfsm.Model.secure_all (toy_model ()) in
  Alcotest.(check bool) "no dotted edge" false
    (contains ~needle:"IMPL_ACPT" (Pfsm.Dot.of_model model))

let test_pretty_model_renders () =
  let s = Pfsm.Pretty.model_to_string (toy_model ()) in
  List.iter
    (fun needle ->
       Alcotest.(check bool) ("mentions " ^ needle) true (contains ~needle s))
    [ "toy"; "op1"; "pFSM1"; "SPEC accepts iff"; "no check in implementation" ]

let () =
  Alcotest.run "pfsm"
    [ ("value",
       [ Alcotest.test_case "equal" `Quick test_value_equal;
         Alcotest.test_case "projections" `Quick test_value_projections ]);
      ("env",
       [ Alcotest.test_case "basics" `Quick test_env_basics;
         Alcotest.test_case "shadowing" `Quick test_env_shadowing ]);
      ("strcodec",
       [ Alcotest.test_case "decode once" `Quick test_decode_once;
         Alcotest.test_case "decode twice" `Quick test_decode_twice;
         Alcotest.test_case "parse integer" `Quick test_parse_integer;
         Alcotest.test_case "atoi32 wrap" `Quick test_atoi32_wrap;
         Alcotest.test_case "fits_int32" `Quick test_fits_int32;
         Alcotest.test_case "format directives" `Quick test_format_directives;
         Alcotest.test_case "percent encode" `Quick test_percent_encode_units;
         QCheck_alcotest.to_alcotest prop_decode_idempotent_on_clean;
         QCheck_alcotest.to_alcotest prop_encode_decode_roundtrip;
         QCheck_alcotest.to_alcotest prop_decode_n_equals_n_passes;
         QCheck_alcotest.to_alcotest prop_wrap32_fixed_point ]);
      ("predicate",
       [ Alcotest.test_case "between" `Quick test_pred_between;
         Alcotest.test_case "length/env" `Quick test_pred_length_and_env;
         Alcotest.test_case "contains/decode" `Quick test_pred_contains_decode;
         Alcotest.test_case "fits_int32 on strings" `Quick
           test_pred_fits_int32_on_strings;
         Alcotest.test_case "format free" `Quick test_pred_format_free;
         Alcotest.test_case "type error" `Quick test_pred_type_error;
         Alcotest.test_case "holds_safely" `Quick test_pred_holds_safely;
         Alcotest.test_case "connectives" `Quick test_pred_connectives;
         Alcotest.test_case "pretty" `Quick test_pred_pp ]);
      ("primitive",
       [ Alcotest.test_case "spec accept" `Quick test_primitive_spec_accept;
         Alcotest.test_case "hidden path" `Quick test_primitive_hidden_path;
         Alcotest.test_case "impl reject" `Quick test_primitive_impl_reject;
         Alcotest.test_case "secured" `Quick test_primitive_secured;
         Alcotest.test_case "missing check" `Quick test_primitive_missing_check;
         QCheck_alcotest.to_alcotest prop_primitive_semantics ]);
      ("model",
       [ Alcotest.test_case "benign run" `Quick test_model_benign_run;
         Alcotest.test_case "exploit run" `Quick test_model_exploit_run;
         Alcotest.test_case "rejection stops cascade" `Quick
           test_model_rejection_stops_cascade;
         Alcotest.test_case "secure operation" `Quick test_model_secure_operation;
         Alcotest.test_case "secure unknown op" `Quick
           test_model_secure_unknown_operation;
         Alcotest.test_case "all pfsms" `Quick test_model_all_pfsms ]);
      ("witness",
       [ Alcotest.test_case "search" `Quick test_witness_search;
         Alcotest.test_case "overstrict" `Quick test_witness_overstrict;
         Alcotest.test_case "skips ill-typed" `Quick test_witness_skips_ill_typed ]);
      ("analysis",
       [ Alcotest.test_case "findings" `Quick test_analysis_findings;
         Alcotest.test_case "taxonomy matrix" `Quick test_analysis_taxonomy_matrix ]);
      ("lemma",
       [ Alcotest.test_case "sufficiency" `Quick test_lemma_sufficiency;
         Alcotest.test_case "pfsm sufficiency" `Quick test_lemma_pfsm_sufficiency;
         Alcotest.test_case "full security" `Quick test_lemma_full_security;
         QCheck_alcotest.to_alcotest prop_lemma_random_inputs ]);
      ("taxonomy/dot/pretty",
       [ Alcotest.test_case "taxonomy" `Quick test_taxonomy_strings;
         Alcotest.test_case "dot output" `Quick test_dot_output;
         Alcotest.test_case "dot secured" `Quick test_dot_secured_has_no_hidden_edge;
         Alcotest.test_case "pretty model" `Quick test_pretty_model_renders ]) ]
