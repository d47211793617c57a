(* The persistent result store: record codec taxonomy, disk round
   trips and graceful degradation, the ambient handle, fsck's
   verify-and-repair, and the crash-recovery property under injected
   durability faults. *)

module S = Store

let fresh_dir () =
  let d = Filename.temp_file "dfsm-store" ".d" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_open_store f = with_dir (fun dir -> f (S.Disk.open_ ~dir))

(* The store.* counters are process-wide: a test reads what its own
   phase added. *)
let since before = S.Disk.sub_stats (S.Disk.stats ()) before

let key_a = "aabbccdd00112233"
let key_b = "ffee998877665544"

(* ---- record codec ------------------------------------------------- *)

let test_record_roundtrip () =
  List.iter
    (fun payload ->
       match S.Record.decode (S.Record.encode payload) with
       | Ok p -> Alcotest.(check string) "round trip" payload p
       | Error e ->
           Alcotest.failf "round trip failed: %s" (S.Record.error_to_string e))
    [ ""; "x"; "line\nbreaks\nand \000 nulls"; String.make 4096 'q' ]

let test_record_taxonomy () =
  let img = S.Record.encode "the payload under test" in
  (* every strict prefix is Torn — exactly what a crash mid-write
     leaves behind *)
  for cut = 0 to String.length img - 1 do
    match S.Record.decode (String.sub img 0 cut) with
    | Error S.Record.Torn -> ()
    | Error e ->
        Alcotest.failf "prefix %d: %s, wanted torn" cut
          (S.Record.error_to_string e)
    | Ok _ -> Alcotest.failf "prefix %d decoded" cut
  done;
  (* a flip anywhere is Checksum_mismatch (header fields that stay
     parseable change the digest; unparseable ones fail structurally) *)
  List.iter
    (fun i ->
       let b = Bytes.of_string img in
       Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
       match S.Record.decode (Bytes.to_string b) with
       | Error (S.Record.Checksum_mismatch | S.Record.Torn) -> ()
       | Error S.Record.Stale_version -> Alcotest.failf "flip %d: stale" i
       | Ok _ -> Alcotest.failf "flip at byte %d went undetected" i)
    [ 0; 10; String.length img - 1 ];
  (* trailing garbage is corruption, not a longer record *)
  (match S.Record.decode (img ^ "extra") with
   | Error S.Record.Checksum_mismatch -> ()
   | _ -> Alcotest.fail "trailing bytes accepted");
  (* a well-formed record from another codec version is Stale_version *)
  match
    S.Record.decode
      (S.Record.For_testing.encode_with_version
         ~version:(S.Record.current_version + 1) "p")
  with
  | Error S.Record.Stale_version -> ()
  | _ -> Alcotest.fail "foreign version not detected"

let test_sealed_lines () =
  let line = S.Record.seal_line "7 some-id" in
  Alcotest.(check (option string)) "sealed line verifies" (Some "7 some-id")
    (S.Record.unseal_line line);
  let b = Bytes.of_string line in
  Bytes.set b (String.length line - 1) '!';
  Alcotest.(check (option string)) "corrupt sealed line" None
    (S.Record.unseal_line (Bytes.to_string b));
  List.iter
    (fun n ->
       Alcotest.(check (option string)) (Printf.sprintf "torn seal prefix %d" n)
         None
         (S.Record.unseal_line (String.sub line 0 n)))
    (List.init (String.length line) Fun.id);
  Alcotest.(check (option string)) "bare line" None
    (S.Record.unseal_line "7 some-id")

(* ---- disk --------------------------------------------------------- *)

let test_disk_roundtrip_and_reopen () =
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      let before = S.Disk.stats () in
      Alcotest.(check (option string)) "cold miss" None (S.Disk.find s ~key:key_a);
      S.Disk.put s ~key:key_a ~payload:"alpha";
      S.Disk.put s ~key:key_b ~payload:"beta\nwith newline";
      S.Disk.put s ~key:key_a ~payload:"alpha-v2";
      Alcotest.(check (option string)) "last write wins" (Some "alpha-v2")
        (S.Disk.find s ~key:key_a);
      let st = since before in
      Alcotest.(check int) "one miss" 1 st.S.Disk.misses;
      Alcotest.(check int) "one hit" 1 st.S.Disk.hits;
      Alcotest.(check int) "three writes" 3 st.S.Disk.writes;
      (* a second process: everything persisted, one record per key *)
      let s2 = S.Disk.open_ ~dir in
      Alcotest.(check (option string)) "reopen finds alpha" (Some "alpha-v2")
        (S.Disk.find s2 ~key:key_a);
      Alcotest.(check (option string)) "reopen finds beta"
        (Some "beta\nwith newline")
        (S.Disk.find s2 ~key:key_b);
      Alcotest.(check (list string)) "object tree holds both records, flat"
        [ key_a ^ ".rec"; key_b ^ ".rec" ]
        (S.Disk.object_files s2))

(* The directories under [objects/], relative to it. *)
let object_dirs dir =
  let objects = Filename.concat dir "objects" in
  let rec walk rel acc =
    Array.fold_left
      (fun acc name ->
        let rel = if rel = "" then name else Filename.concat rel name in
        if Sys.is_directory (Filename.concat objects rel) then walk rel (rel :: acc)
        else acc)
      acc
      (Sys.readdir (if rel = "" then objects else Filename.concat objects rel))
  in
  List.sort compare (walk "" [])

let test_disk_put_makes_no_directory () =
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      List.iter
        (fun i -> S.Disk.put s ~key:(Printf.sprintf "%016x" (i * 0x1234567)) ~payload:"p")
        (List.init 64 Fun.id);
      Alcotest.(check int) "64 records" 64 (List.length (S.Disk.object_files s));
      Alcotest.(check (list string)) "no directory under objects/" [] (object_dirs dir))

(* A record where older builds wrote it: two directory levels on the
   key's first four characters. *)
let place_sharded dir ~key image =
  let shard =
    Filename.concat
      (Filename.concat (Filename.concat dir "objects") (String.sub key 0 2))
      (String.sub key 2 2)
  in
  S.Io.mkdir_p shard;
  let path = Filename.concat shard (key ^ ".rec") in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc image);
  path

let test_disk_serves_sharded_record () =
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      let path = place_sharded dir ~key:key_a (S.Record.encode "older build") in
      let before = S.Disk.stats () in
      Alcotest.(check (option string)) "sharded record served" (Some "older build")
        (S.Disk.find s ~key:key_a);
      let st = since before in
      Alcotest.(check int) "a hit" 1 st.S.Disk.hits;
      Alcotest.(check int) "no miss" 0 st.S.Disk.misses;
      Alcotest.(check int) "no write" 0 st.S.Disk.writes;
      Alcotest.(check bool) "left where it is" true (Sys.file_exists path);
      Alcotest.(check (list string)) "nothing written flat"
        [ "aa/bb/" ^ key_a ^ ".rec" ] (S.Disk.object_files s);
      let r = S.Fsck.scan s in
      Alcotest.(check int) "fsck: sound" 1 r.S.Fsck.sound;
      Alcotest.(check bool) "fsck: clean" true (S.Fsck.clean r && r.S.Fsck.entries = []);
      (* one level deep is neither layout: no key is read from there *)
      let stray = Filename.concat (Filename.concat dir "objects") "aa" in
      Out_channel.with_open_bin
        (Filename.concat stray (key_a ^ ".rec"))
        (fun oc -> Out_channel.output_string oc (S.Record.encode "stray"));
      let r = S.Fsck.scan s in
      Alcotest.(check int) "fsck: one-level copy is a stray" 1 r.S.Fsck.checksum_mismatch)

let test_disk_evicts_corrupt_sharded_record () =
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      let img = S.Record.encode "older build" in
      let torn = place_sharded dir ~key:key_a (String.sub img 0 (String.length img - 1)) in
      let before = S.Disk.stats () in
      S.Handle.with_store (Some s) (fun () ->
          Alcotest.(check int) "corrupt: recomputed" 7
            (S.Handle.cached ~tag:"t" ~key:key_a (fun () -> 7)));
      let st = since before in
      Alcotest.(check int) "counted corrupt" 1 st.S.Disk.corrupt;
      Alcotest.(check int) "rewrite is a repair" 1 st.S.Disk.repaired;
      Alcotest.(check bool) "sharded record evicted" false (Sys.file_exists torn);
      Alcotest.(check (list string)) "rewritten flat" [ key_a ^ ".rec" ]
        (S.Disk.object_files s);
      (* a key held at both paths: an eviction clears both, so the
         sharded copy cannot be served in the evicted one's place *)
      let sound = place_sharded dir ~key:key_a (S.Record.encode "older build") in
      S.Disk.note_corrupt s ~key:key_a;
      Alcotest.(check bool) "flat record evicted" false
        (Sys.file_exists (S.Disk.record_path s ~key:key_a));
      Alcotest.(check bool) "sharded record evicted" false (Sys.file_exists sound);
      Alcotest.(check (option string)) "then a miss" None (S.Disk.find s ~key:key_a))

let test_disk_key_validation () =
  Alcotest.(check bool) "hex key ok" true (S.Disk.valid_key key_a);
  List.iter
    (fun k ->
       Alcotest.(check bool) (Printf.sprintf "%S invalid" k) false
         (S.Disk.valid_key k))
    [ ""; "short"; "AABBCCDD00112233"; "zzzzzzzzzzzzzzzz"; "../../etc/passwd" ];
  with_open_store (fun s ->
      Alcotest.check_raises "find rejects bad key"
        (Invalid_argument "Store.Disk: invalid key \"nope\"") (fun () ->
          ignore (S.Disk.find s ~key:"nope")))

let test_disk_degrades_on_corruption () =
  with_open_store (fun s ->
      let before = S.Disk.stats () in
      S.Disk.put s ~key:key_a ~payload:"precious";
      (* flip one payload byte on disk behind the store's back *)
      let path = S.Disk.record_path s ~key:key_a in
      let img = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string img in
      Bytes.set b (Bytes.length b - 1) '\000';
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc b);
      Alcotest.(check (option string)) "corrupt record reads as a miss" None
        (S.Disk.find s ~key:key_a);
      Alcotest.(check bool) "corrupt record evicted" false (Sys.file_exists path);
      Alcotest.(check int) "counted corrupt" 1 (since before).S.Disk.corrupt;
      (* the caller's recompute-and-rewrite is a repair *)
      S.Disk.put s ~key:key_a ~payload:"recomputed";
      Alcotest.(check int) "rewrite counted as repair" 1
        (since before).S.Disk.repaired;
      Alcotest.(check (option string)) "store healthy again"
        (Some "recomputed")
        (S.Disk.find s ~key:key_a))

(* ---- codec -------------------------------------------------------- *)

let test_codec () =
  let v = [ ("x", 1); ("y", 2) ] in
  let p = S.Codec.to_payload ~tag:"pairs" v in
  (match S.Codec.of_payload ~tag:"pairs" p with
   | Some v' -> Alcotest.(check bool) "round trip" true (v = v')
   | None -> Alcotest.fail "decode failed");
  (match (S.Codec.of_payload ~tag:"other" p : int option) with
   | None -> ()
   | Some _ -> Alcotest.fail "tag mismatch accepted");
  (match (S.Codec.of_payload ~tag:"pairs" "pairs\ngarbage" : int option) with
   | None -> ()
   | Some _ -> Alcotest.fail "garbage unmarshalled");
  Alcotest.check_raises "newline tag rejected"
    (Invalid_argument "Store.Codec: tag has newline") (fun () ->
      ignore (S.Codec.to_payload ~tag:"a\nb" ()))

(* ---- handle ------------------------------------------------------- *)

let test_handle_cached () =
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      let before = S.Disk.stats () in
      S.Handle.with_store (Some s) (fun () ->
          let computes = ref 0 in
          let compute () = incr computes; 40 + 2 in
          Alcotest.(check int) "miss computes" 42
            (S.Handle.cached ~tag:"t" ~key:key_a compute);
          Alcotest.(check int) "hit short-circuits" 42
            (S.Handle.cached ~tag:"t" ~key:key_a compute);
          Alcotest.(check int) "computed exactly once" 1 !computes;
          (* a record holding another caller's tag is stale payload:
             note_corrupt + recompute + rewrite, never a wrong value *)
          (match S.Handle.get () with
           | Some st -> S.Disk.put st ~key:key_b ~payload:"other-tag\njunk"
           | None -> Alcotest.fail "ambient store missing");
          Alcotest.(check int) "stale payload recomputes" 42
            (S.Handle.cached ~tag:"t" ~key:key_b compute);
          Alcotest.(check int) "stale rewrite is a repair" 1
            (since before).S.Disk.repaired);
      Alcotest.(check bool) "with_store restores" true (S.Handle.get () = None))

let test_handle_sim_plan_bypass () =
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      let before = S.Disk.stats () in
      S.Handle.with_store (Some s) (fun () ->
          Fault.Hooks.with_plan Fault.Catalog.bitflip (fun () ->
              Alcotest.(check bool) "ambient hidden under sim plan" true
                (S.Handle.ambient () = None);
              Alcotest.(check int) "cached still computes" 7
                (S.Handle.cached ~tag:"t" ~key:key_a (fun () -> 7)));
          Alcotest.(check int) "nothing written under the plan" 0
            (since before).S.Disk.writes;
          Alcotest.(check (option string)) "no poisoned record" None
            (S.Disk.find s ~key:key_a)))

(* ---- fsck --------------------------------------------------------- *)

let tampered_store dir =
  (* four sound records, then: one torn, one flipped, one from a
     foreign codec version, one stranded tmp *)
  let s = S.Disk.open_ ~dir in
  let keys =
    [ "1111111111111111"; "2222222222222222"; "3333333333333333";
      "4444444444444444" ]
  in
  List.iter (fun k -> S.Disk.put s ~key:k ~payload:("v:" ^ k)) keys;
  let tamper key f =
    let path = S.Disk.record_path s ~key in
    let img = In_channel.with_open_bin path In_channel.input_all in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (f img))
  in
  tamper "1111111111111111" (fun img ->
      String.sub img 0 (String.length img / 2));
  tamper "2222222222222222" (fun img ->
      let b = Bytes.of_string img in
      Bytes.set b (Bytes.length b - 1) '\255';
      Bytes.to_string b);
  tamper "3333333333333333" (fun _ ->
      S.Record.For_testing.encode_with_version
        ~version:(S.Record.current_version + 9) "future");
  let tmp =
    Filename.concat
      (Filename.dirname (S.Disk.record_path s ~key:"4444444444444444"))
      "4444444444444444.99.tmp"
  in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc "in flight");
  s

let count_status st (r : S.Fsck.report) =
  List.length
    (List.filter (fun (e : S.Fsck.entry) -> e.S.Fsck.status = st) r.S.Fsck.entries)

let test_fsck_classify_and_repair () =
  with_dir (fun dir ->
      let s = tampered_store dir in
      let r = S.Fsck.scan s in
      Alcotest.(check int) "one sound" 1 r.S.Fsck.sound;
      Alcotest.(check int) "one torn" 1 r.S.Fsck.torn;
      Alcotest.(check int) "one flipped" 1 r.S.Fsck.checksum_mismatch;
      Alcotest.(check int) "one stale" 1 r.S.Fsck.stale_version;
      Alcotest.(check int) "one orphan tmp" 1 r.S.Fsck.orphan_tmp;
      Alcotest.(check int) "torn classified" 1 (count_status S.Fsck.Torn r);
      Alcotest.(check bool) "scan alone repairs nothing" false
        (S.Fsck.clean r);
      Alcotest.(check int) "nothing removed without repair" 0 r.S.Fsck.removed;
      let r2 = S.Fsck.scan ~repair:true s in
      Alcotest.(check int) "repair removes the four bad files" 4
        r2.S.Fsck.removed;
      Alcotest.(check bool) "repair leaves the store clean" true
        (S.Fsck.clean r2);
      let r3 = S.Fsck.scan s in
      Alcotest.(check bool) "post-repair scan is clean" true (S.Fsck.clean r3);
      Alcotest.(check int) "survivor intact" 1 r3.S.Fsck.sound;
      Alcotest.(check (option string)) "sound record still reads"
        (Some "v:4444444444444444")
        (S.Disk.find s ~key:"4444444444444444"))

let test_fsck_old_layout () =
  (* a store as older builds left it: the records, plus a root journal
     of sealed key lines whose last append was torn.  The object tree
     alone serves it, and fsck neither reads nor touches the journal. *)
  with_dir (fun dir ->
      let keys = [ key_a; key_b; "0123456789abcdef" ] in
      let s = S.Disk.open_ ~dir in
      List.iter (fun k -> S.Disk.put s ~key:k ~payload:("v:" ^ k)) keys;
      let journal = Filename.concat dir "manifest" in
      let torn = S.Record.seal_line "fedcba9876543210" in
      let image =
        String.concat "" (List.map (fun k -> S.Record.seal_line k ^ "\n") keys)
        ^ String.sub torn 0 (String.length torn / 2)
      in
      Out_channel.with_open_bin journal (fun oc ->
          Out_channel.output_string oc image);
      let s = S.Disk.open_ ~dir in
      let before = S.Disk.stats () in
      List.iter
        (fun k ->
           Alcotest.(check (option string)) ("serves " ^ k) (Some ("v:" ^ k))
             (S.Disk.find s ~key:k))
        keys;
      Alcotest.(check int) "no misses" 0 (since before).S.Disk.misses;
      let r = S.Fsck.scan s and r2 = S.Fsck.scan ~repair:true s in
      Alcotest.(check bool) "scan: clean" true (S.Fsck.clean r && r.S.Fsck.entries = []);
      Alcotest.(check int) "scan: every record sound" 3 r.S.Fsck.sound;
      Alcotest.(check int) "repair removes nothing" 0 r2.S.Fsck.removed;
      Alcotest.(check string) "journal untouched" image
        (In_channel.with_open_bin journal In_channel.input_all))

(* ---- crash-recovery property -------------------------------------- *)

let prop_faulted_store_repairs_clean =
  let open QCheck in
  (* Under any durability plan — torn writes, bit flips, write errors,
     crash-before-rename, or all four at once — a store that absorbed a
     burst of puts is always recoverable: [fsck --repair] leaves it
     clean, and every surviving record still decodes to the exact
     payload that was put.  Silent wrong answers are the one forbidden
     outcome. *)
  Test.make ~name:"store: fsck --repair recovers any fault-injected store"
    ~count:40
    (pair (int_range 0 4) small_nat)
    (fun (plan_ix, seed) ->
       let plan =
         { (List.nth Fault.Catalog.disk plan_ix) with Fault.Plan.seed }
       in
       let dir = fresh_dir () in
       Fun.protect ~finally:(fun () -> rm_rf dir)
         (fun () ->
            let s = S.Disk.open_ ~dir in
            let keys =
              List.init 12 (fun i -> Printf.sprintf "%032x" (i * 7919 + seed))
            in
            let (), _events =
              Fault.Hooks.run plan (fun () ->
                  List.iter
                    (fun k -> S.Disk.put s ~key:k ~payload:("payload:" ^ k))
                    keys)
            in
            let repaired = S.Fsck.scan ~repair:true s in
            let after = S.Fsck.scan s in
            let honest =
              List.for_all
                (fun k ->
                   match S.Disk.find s ~key:k with
                   | None -> true (* lost to a fault: degrade, not lie *)
                   | Some p -> p = "payload:" ^ k)
                keys
            in
            S.Fsck.clean repaired && S.Fsck.clean after
            && after.S.Fsck.removed = 0 && honest))

(* ---- warm-store sweeps -------------------------------------------- *)

let test_warm_sweep_byte_identical () =
  (* the store must never change results: a store-less sweep, a cold
     store-backed sweep, and a warm one are byte-identical, and the
     warm pass recomputes nothing *)
  let sweep () =
    Json.to_string
      (Staticcheck.Linter.sweep_to_json (Staticcheck.Linter.corpus_sweep ()))
  in
  let reference = sweep () in
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      let cold, warm =
        S.Handle.with_store (Some s) (fun () ->
            let cold = sweep () in
            let before = S.Disk.stats () in
            let warm = sweep () in
            let d = since before in
            Alcotest.(check int) "warm pass misses nothing" 0 d.S.Disk.misses;
            Alcotest.(check int) "warm pass writes nothing" 0 d.S.Disk.writes;
            Alcotest.(check bool) "warm pass all hits" true (d.S.Disk.hits > 0);
            (cold, warm))
      in
      Alcotest.(check string) "cold sweep matches store-less" reference cold;
      Alcotest.(check string) "warm sweep matches store-less" reference warm)

let test_warm_sweep_jobs_identical () =
  (* -j independence survives a shared warm store *)
  with_dir (fun dir ->
      let s = S.Disk.open_ ~dir in
      let prev = Par.jobs () in
      let sweep jobs =
        Par.set_jobs jobs;
        Json.to_string
          (Staticcheck.Linter.sweep_to_json (Staticcheck.Linter.corpus_sweep ()))
      in
      Fun.protect ~finally:(fun () -> Par.set_jobs prev)
        (fun () ->
          S.Handle.with_store (Some s) (fun () ->
              let j1 = sweep 1 in
              let j2 = sweep 2 and j4 = sweep 4 in
              Alcotest.(check string) "-j2 byte-identical on warm store" j1 j2;
              Alcotest.(check string) "-j4 byte-identical on warm store" j1 j4)))

(* ---- suite -------------------------------------------------------- *)

let () =
  Alcotest.run "store"
    [ ("record",
       [ Alcotest.test_case "round trip" `Quick test_record_roundtrip;
         Alcotest.test_case "tamper taxonomy" `Quick test_record_taxonomy;
         Alcotest.test_case "sealed lines" `Quick test_sealed_lines ]);
      ("disk",
       [ Alcotest.test_case "round trip and reopen" `Quick
           test_disk_roundtrip_and_reopen;
         Alcotest.test_case "key validation" `Quick test_disk_key_validation;
         Alcotest.test_case "degrades on corruption" `Quick
           test_disk_degrades_on_corruption;
         Alcotest.test_case "puts make no directory" `Quick
           test_disk_put_makes_no_directory;
         Alcotest.test_case "older two-level record served" `Quick
           test_disk_serves_sharded_record;
         Alcotest.test_case "corrupt two-level record evicted" `Quick
           test_disk_evicts_corrupt_sharded_record ]);
      ("codec", [ Alcotest.test_case "tagged marshal" `Quick test_codec ]);
      ("handle",
       [ Alcotest.test_case "cached flow" `Quick test_handle_cached;
         Alcotest.test_case "sim-plan bypass" `Quick
           test_handle_sim_plan_bypass ]);
      ("fsck",
       [ Alcotest.test_case "classify and repair" `Quick
           test_fsck_classify_and_repair;
         Alcotest.test_case "older layout served and clean" `Quick
           test_fsck_old_layout;
         QCheck_alcotest.to_alcotest prop_faulted_store_repairs_clean ]);
      ("sweep",
       [ Alcotest.test_case "byte-identical store-less/cold/warm" `Quick
           test_warm_sweep_byte_identical;
         Alcotest.test_case "byte-identical across -j" `Quick
           test_warm_sweep_jobs_identical ]) ]
