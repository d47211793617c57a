(* Tests for the OS substrate: permissions, filesystem with symlinks,
   interleaving scheduler, sockets. *)

module Fs = Osmodel.Filesystem
module U = Osmodel.User
module Perm = Osmodel.Perm
module Sched = Osmodel.Scheduler
module Sock = Osmodel.Socket

let tom = U.Regular "tom"

let mode = Perm.of_octal

(* ---- perm -------------------------------------------------------- *)

(* Only owner/other bits are modelled; group bits are dropped. *)
let test_perm_octal_roundtrip () =
  List.iter
    (fun m ->
       Alcotest.(check int) (Printf.sprintf "0o%o" m) m (Perm.to_octal (mode m)))
    [ 0o604; 0o600; 0o606; 0o204; 0o000 ];
  Alcotest.(check int) "group bits dropped" 0o606 (Perm.to_octal (mode 0o666))

let test_perm_owner_vs_other () =
  let p = mode 0o644 in
  Alcotest.(check bool) "owner writes" true
    (Perm.can_write p ~owner:tom ~as_user:tom);
  Alcotest.(check bool) "other cannot write" false
    (Perm.can_write p ~owner:tom ~as_user:(U.Regular "eve"));
  Alcotest.(check bool) "other reads" true
    (Perm.can_read p ~owner:tom ~as_user:(U.Regular "eve"))

let test_perm_root_bypasses () =
  let p = mode 0o600 in
  Alcotest.(check bool) "root writes anything" true
    (Perm.can_write p ~owner:tom ~as_user:U.Root);
  Alcotest.(check bool) "root reads anything" true
    (Perm.can_read p ~owner:tom ~as_user:U.Root)

let test_perm_world_writable () =
  Alcotest.(check bool) "666" true (Perm.world_writable (mode 0o666));
  Alcotest.(check bool) "644" false (Perm.world_writable (mode 0o644))

(* ---- filesystem -------------------------------------------------- *)

let fs_with_passwd () =
  let fs = Fs.create () in
  Fs.mkfile fs "/etc/passwd" ~owner:U.Root ~mode:(mode 0o644) "root::0:0\n";
  fs

let test_fs_create_read () =
  let fs = fs_with_passwd () in
  Alcotest.(check string) "content" "root::0:0\n" (Fs.content fs "/etc/passwd");
  Alcotest.(check bool) "exists" true (Fs.exists fs "/etc/passwd");
  Alcotest.(check bool) "absent" false (Fs.exists fs "/etc/shadow")

let test_fs_normalise_dotdot () =
  let fs = fs_with_passwd () in
  Alcotest.(check string) "dev-relative escape" "/etc/passwd"
    (Fs.resolve fs ~cwd:"/dev" "../etc/passwd");
  Alcotest.(check string) "double slash and dot" "/etc/passwd"
    (Fs.resolve fs "//etc/./passwd");
  Alcotest.(check string) "dotdot at root clamps" "/etc/passwd"
    (Fs.resolve fs "/../../etc/passwd")

let test_fs_symlink_resolution () =
  let fs = fs_with_passwd () in
  Fs.symlink fs ~link:"/tmp/x" ~target:"/etc/passwd";
  Alcotest.(check string) "follows" "/etc/passwd" (Fs.resolve fs "/tmp/x");
  Alcotest.(check bool) "lstat-style" true (Fs.is_symlink fs "/tmp/x");
  Alcotest.(check bool) "target is not a symlink" false
    (Fs.is_symlink fs "/etc/passwd")

let test_fs_symlink_chain_and_loop () =
  let fs = fs_with_passwd () in
  Fs.symlink fs ~link:"/a" ~target:"/b";
  Fs.symlink fs ~link:"/b" ~target:"/etc/passwd";
  Alcotest.(check string) "chain" "/etc/passwd" (Fs.resolve fs "/a");
  Fs.symlink fs ~link:"/loop1" ~target:"/loop2";
  Fs.symlink fs ~link:"/loop2" ~target:"/loop1";
  match Fs.resolve fs "/loop1" with
  | _ -> Alcotest.fail "loop not detected"
  | exception Fs.Fs_error (Fs.Too_many_links _) -> ()

let test_fs_relative_symlink_target () =
  let fs = fs_with_passwd () in
  Fs.mkfile fs "/usr/tom/real" ~owner:tom ~mode:(mode 0o644) "data";
  Fs.symlink fs ~link:"/usr/tom/x" ~target:"real";
  Alcotest.(check string) "relative to link dir" "/usr/tom/real"
    (Fs.resolve fs "/usr/tom/x")

let test_fs_open_write_permissions () =
  let fs = fs_with_passwd () in
  (match Fs.open_write fs "/etc/passwd" ~as_user:tom with
   | _ -> Alcotest.fail "tom wrote /etc/passwd"
   | exception Fs.Fs_error (Fs.Permission_denied _) -> ());
  let fd = Fs.open_write fs "/etc/passwd" ~as_user:U.Root in
  Fs.append fs fd "eve::0:0\n";
  Alcotest.(check string) "append as root" "root::0:0\neve::0:0\n"
    (Fs.content fs "/etc/passwd")

let test_fs_open_write_follows_symlink () =
  let fs = fs_with_passwd () in
  Fs.symlink fs ~link:"/tmp/log" ~target:"/etc/passwd";
  let fd = Fs.open_write fs "/tmp/log" ~as_user:U.Root in
  Alcotest.(check string) "fd designates the target" "/etc/passwd" (Fs.fd_path fd)

let test_fs_open_creates_missing () =
  let fs = Fs.create () in
  let fd = Fs.open_write fs "/home/tom/new" ~as_user:tom in
  Fs.write fs fd "hi";
  Alcotest.(check string) "created and written" "hi" (Fs.content fs "/home/tom/new");
  Alcotest.(check bool) "owner is creator" true
    (U.equal (Fs.owner_of fs "/home/tom/new") tom)

let test_fs_unlink_and_exists () =
  let fs = fs_with_passwd () in
  Fs.unlink fs "/etc/passwd" ~as_user:U.Root;
  Alcotest.(check bool) "gone" false (Fs.exists fs "/etc/passwd");
  match Fs.unlink fs "/etc/passwd" ~as_user:U.Root with
  | _ -> Alcotest.fail "unlinked twice"
  | exception Fs.Fs_error (Fs.Not_found_ _) -> ()

let test_fs_access_write () =
  let fs = fs_with_passwd () in
  Fs.mkfile fs "/usr/tom/x" ~owner:tom ~mode:(mode 0o644) "";
  Alcotest.(check bool) "tom's own file" true
    (Fs.access_write fs "/usr/tom/x" ~as_user:tom);
  Alcotest.(check bool) "tom on /etc/passwd" false
    (Fs.access_write fs "/etc/passwd" ~as_user:tom);
  Alcotest.(check bool) "missing file" false (Fs.access_write fs "/nope" ~as_user:tom)

let test_fs_kind_and_chmod () =
  let fs = Fs.create () in
  Fs.mkfile fs "/dev/pts/25" ~owner:tom ~mode:(mode 0o620) ~kind:Fs.Terminal "";
  Alcotest.(check bool) "terminal" true (Fs.kind_of fs "/dev/pts/25" = Fs.Terminal);
  Fs.chmod fs "/dev/pts/25" (mode 0o600);
  Alcotest.(check int) "chmod applied" 0o600
    (Perm.to_octal (Fs.mode_of fs "/dev/pts/25"))

let test_fs_mkfile_duplicate () =
  let fs = fs_with_passwd () in
  match Fs.mkfile fs "/etc/passwd" ~owner:U.Root ~mode:(mode 0o644) "x" with
  | _ -> Alcotest.fail "overwrote existing file"
  | exception Fs.Fs_error (Fs.Already_exists _) -> ()

(* ---- scheduler --------------------------------------------------- *)

let test_sched_interleaving_count () =
  Alcotest.(check int) "C(5,2)" 10 (Sched.interleaving_count 3 2);
  Alcotest.(check int) "C(2,1)" 2 (Sched.interleaving_count 1 1);
  Alcotest.(check int) "n=0" 1 (Sched.interleaving_count 0 7);
  Alcotest.(check int) "C(8,4)" 70 (Sched.interleaving_count 4 4)

let test_sched_interleaving_count_saturates () =
  (* max_int is 2^62 - 1; C(64,32) still fits, C(66,33) is the first
     central binomial that does not. *)
  Alcotest.(check int) "C(64,32) exact" 1832624140942590534
    (Sched.interleaving_count 32 32);
  Alcotest.(check bool) "C(66,33) saturates" true
    (max_int = Sched.interleaving_count 33 33);
  Alcotest.(check bool) "far past the edge still saturates" true
    (max_int = Sched.interleaving_count 500 500);
  Alcotest.(check bool) "one-sided overflow saturates" true
    (max_int = Sched.interleaving_count 1 max_int);
  match Sched.interleaving_count (-1) 3 with
  | _ -> Alcotest.fail "negative length accepted"
  | exception Invalid_argument _ -> ()

let test_sched_interleavings_exhaustive () =
  let merges = Sched.interleavings [ 1; 2 ] [ 3 ] in
  Alcotest.(check int) "3 merges" 3 (List.length merges);
  Alcotest.(check bool) "contains [1;2;3]" true (List.mem [ 1; 2; 3 ] merges);
  Alcotest.(check bool) "contains [1;3;2]" true (List.mem [ 1; 3; 2 ] merges);
  Alcotest.(check bool) "contains [3;1;2]" true (List.mem [ 3; 1; 2 ] merges)

let prop_interleavings_preserve_order =
  let open QCheck in
  Test.make ~name:"scheduler: every merge preserves each side's order" ~count:100
    (pair (list_of_size Gen.(0 -- 5) small_int) (list_of_size Gen.(0 -- 5) small_int))
    (fun (xs, ys) ->
       let tagged_xs = List.map (fun x -> `A x) xs in
       let tagged_ys = List.map (fun y -> `B y) ys in
       let merges = Sched.interleavings tagged_xs tagged_ys in
       let lefts merge = List.filter_map (function `A x -> Some x | `B _ -> None) merge in
       let rights merge = List.filter_map (function `B y -> Some y | `A _ -> None) merge in
       List.length merges = Sched.interleaving_count (List.length xs) (List.length ys)
       && List.for_all (fun m -> lefts m = xs && rights m = ys) merges)

let test_sched_explore_finds_window () =
  (* The property holds only when b1 lands between a1 and a2: exactly
     one of the C(3,1) = 3 schedules. *)
  let init () = ref [] in
  let a =
    [ Sched.step "a1" (fun l -> l := "a1" :: !l);
      Sched.step "a2" (fun l -> l := "a2" :: !l) ]
  in
  let b = [ Sched.step "b1" (fun l -> l := "b1" :: !l) ] in
  let check l = if !l = [ "a2"; "b1"; "a1" ] then Some "window hit" else None in
  let verdicts = (Sched.explore ~init ~a ~b ~check ()).Sched.verdicts in
  Alcotest.(check int) "one winning schedule" 1 (List.length verdicts);
  Alcotest.(check (list string)) "schedule recorded" [ "a1"; "b1"; "a2" ]
    (List.hd verdicts).Sched.schedule

let test_sched_explore_swallows_typed_errors () =
  (* A step whose syscall fails with one of the osmodel's typed errors
     is a no-op for that process — the exploration continues. *)
  let init () = ref 0 in
  let a =
    [ Sched.step "enoent" (fun _ ->
          raise (Fs.Fs_error (Fs.Not_found_ "/no/such/file"))) ]
  in
  let b = [ Sched.step "inc" (fun r -> incr r) ] in
  let verdicts =
    (Sched.explore ~init ~a ~b ~check:(fun r -> if !r = 1 then Some () else None) ())
      .Sched.verdicts
  in
  Alcotest.(check int) "both schedules complete" 2 (List.length verdicts)

let test_sched_explore_propagates_programming_errors () =
  (* Swallowing every exception used to hide real bugs: anything that
     is not a typed osmodel error must escape the exploration. *)
  let init () = ref 0 in
  let a = [ Sched.step "bug" (fun _ -> invalid_arg "broken step") ] in
  let b = [ Sched.step "inc" (fun r -> incr r) ] in
  match Sched.explore ~init ~a ~b ~check:(fun _ -> None) () with
  | _ -> Alcotest.fail "Invalid_argument was swallowed"
  | exception Invalid_argument _ -> ()

let test_sched_interleaving_count_n_edges () =
  Alcotest.(check int) "no processes" 1 (Sched.interleaving_count_n []);
  Alcotest.(check int) "single process" 1 (Sched.interleaving_count_n [ 5 ]);
  Alcotest.(check int) "empty processes" 1 (Sched.interleaving_count_n [ 0; 0 ]);
  Alcotest.(check int) "3!/(1!1!1!)" 6 (Sched.interleaving_count_n [ 1; 1; 1 ]);
  Alcotest.(check int) "matches 2-proc count" (Sched.interleaving_count 3 2)
    (Sched.interleaving_count_n [ 3; 2 ]);
  Alcotest.(check bool) "saturates" true
    (max_int = Sched.interleaving_count_n [ 33; 33 ]);
  match Sched.interleaving_count_n [ 2; -1 ] with
  | _ -> Alcotest.fail "negative length accepted"
  | exception Invalid_argument _ -> ()

(* ---- partial-order reduction ------------------------------------- *)

module E = Osmodel.Effect

let append_step name cell =
  Sched.step_e name
    ~effects:[ E.writes (E.Mem cell) ]
    (fun log -> log := name :: !log)

let test_sched_por_prunes_independent () =
  (* Two processes on disjoint cells: every interleaving reaches the
     same final state, so sleep sets keep exactly one schedule. *)
  let a = [ append_step "a1" "x"; append_step "a2" "x" ] in
  let b = [ append_step "b1" "y" ] in
  let count seq = Seq.fold_left (fun n _ -> n + 1) 0 seq in
  Alcotest.(check int) "full enumeration has 3" 3
    (count (Sched.schedules_n [ a; b ]));
  Alcotest.(check int) "reduction keeps 1" 1
    (count (Sched.schedules_n ~independent:E.independent [ a; b ]))

let test_sched_por_keeps_conflicting () =
  (* Same cell: nothing commutes, reduction must keep all schedules. *)
  let a = [ append_step "a1" "x"; append_step "a2" "x" ] in
  let b = [ append_step "b1" "x" ] in
  let count seq = Seq.fold_left (fun n _ -> n + 1) 0 seq in
  Alcotest.(check int) "reduction keeps all 3" 3
    (count (Sched.schedules_n ~independent:E.independent [ a; b ]))

let test_sched_por_preserves_final_states () =
  (* A conflicting pair plus an independent spectator: the reduced
     verdict set over final states equals the full one. *)
  let mk name cell f = Sched.step_e name ~effects:[ E.writes (E.Mem cell) ] f in
  let procs =
    [ [ mk "a1" "x" (fun (x, _) -> x := (!x * 3) + 1);
        mk "a2" "x" (fun (x, _) -> x := (!x * 3) + 2) ];
      [ mk "b1" "x" (fun (x, _) -> x := (!x * 3) + 3) ];
      [ mk "c1" "y" (fun (_, y) -> y := !y + 7) ] ]
  in
  let init () = (ref 0, ref 0) in
  let check (x, y) = Some (!x, !y) in
  let finals r =
    r.Sched.verdicts
    |> List.map (fun v -> v.Sched.result)
    |> List.sort_uniq compare
  in
  let full = Sched.explore_n ~init ~procs ~check () in
  let reduced =
    Sched.explore_n ~independent:E.independent ~init ~procs ~check ()
  in
  Alcotest.(check (list (pair int int)))
    "same final states" (finals full) (finals reduced);
  Alcotest.(check bool) "reduction ran fewer schedules" true
    (reduced.Sched.explored < full.Sched.explored);
  Alcotest.(check bool) "reduced run is still complete" true
    (Fault.Budget.complete reduced.Sched.coverage)

(* The bitmask [schedules_por] must emit the exact schedule sequence of
   the list-set reference, not merely the same trace coverage. *)
let schedule_labels seq =
  List.of_seq (Seq.map (List.map (fun s -> s.Sched.label)) seq)

let check_por_matches_ref name procs =
  Alcotest.(check (list (list string)))
    name
    (schedule_labels (Scheduler_ref.schedules_por ~independent:E.independent procs))
    (schedule_labels (Sched.schedules_por ~independent:E.independent procs))

let test_sched_por_bitmask_matches_ref () =
  check_por_matches_ref "independent pair"
    [ [ append_step "a1" "x"; append_step "a2" "x" ]; [ append_step "b1" "y" ] ];
  check_por_matches_ref "conflicting pair"
    [ [ append_step "a1" "x"; append_step "a2" "x" ]; [ append_step "b1" "x" ] ];
  check_por_matches_ref "spectator"
    [ [ append_step "a1" "x"; append_step "a2" "x" ];
      [ append_step "b1" "x" ];
      [ append_step "c1" "y" ] ];
  check_por_matches_ref "empty process dropped"
    [ [ append_step "a1" "x" ]; []; [ append_step "b1" "y" ] ];
  check_por_matches_ref "no processes" []

(* One bit per process: past [Sys.int_size - 1] non-empty processes the
   bitmask enumeration refuses with a typed error. *)
let test_sched_por_process_limit () =
  let procs n =
    List.init n (fun i -> [ append_step (Printf.sprintf "p%d" i) "x" ])
  in
  let por n = Sched.schedules_por ~independent:E.independent (procs n) in
  let limit = Sys.int_size - 1 in
  Alcotest.check_raises "one process too many"
    (Invalid_argument
       (Printf.sprintf "Scheduler.schedules_por: %d processes (at most %d)"
          (limit + 1) limit))
    (fun () -> ignore (Seq.is_empty (por (limit + 1))));
  match Seq.uncons (por limit) with
  | Some (first, _) ->
      Alcotest.(check (list string)) "at the limit, process order first"
        (List.init limit (Printf.sprintf "p%d"))
        (List.map (fun s -> s.Sched.label) first)
  | None -> Alcotest.fail "no schedule at the limit"

let prop_por_bitmask_matches_reference =
  let open QCheck in
  let cell = Gen.oneofl [ "x"; "y"; "z" ] in
  let proc p =
    Gen.map
      (List.mapi (fun i (c, w) ->
           let label = Printf.sprintf "p%d.%d:%s%s" p i (if w then "w" else "r") c in
           let eff = if w then E.writes (E.Mem c) else E.reads (E.Mem c) in
           Sched.step_e label ~effects:[ eff ] (fun log -> log := label :: !log)))
      (Gen.list_size (Gen.int_range 0 3) (Gen.pair cell Gen.bool))
  in
  let procs =
    Gen.(int_range 2 3 >>= fun n -> flatten_l (List.init n proc))
  in
  Test.make ~name:"bitmask POR = list-set POR, schedule for schedule"
    ~count:200
    (make ~print:(fun ps ->
         String.concat " | "
           (List.map (fun p -> String.concat "," (List.map (fun s -> s.Sched.label) p)) ps))
       procs)
    (fun procs ->
       schedule_labels (Sched.schedules_por ~independent:E.independent procs)
       = schedule_labels (Scheduler_ref.schedules_por ~independent:E.independent procs))

(* ---- socket ------------------------------------------------------ *)

let test_socket_chunked_recv () =
  let s = Sock.of_string (String.make 2500 'x') in
  Alcotest.(check int) "first chunk" 1024 (String.length (Sock.recv s 1024));
  Alcotest.(check int) "second chunk" 1024 (String.length (Sock.recv s 1024));
  Alcotest.(check int) "tail" 452 (String.length (Sock.recv s 1024));
  Alcotest.(check string) "eof" "" (Sock.recv s 1024);
  Alcotest.(check int) "consumed all" 2500 (Sock.consumed s)

let test_socket_remaining () =
  let s = Sock.of_string "abcdef" in
  Alcotest.(check string) "partial" "abc" (Sock.recv s 3);
  Alcotest.(check int) "remaining" 3 (Sock.remaining s)

let test_socket_zero_or_negative_recv () =
  let s = Sock.of_string "abc" in
  Alcotest.(check string) "zero" "" (Sock.recv s 0);
  Alcotest.(check string) "negative" "" (Sock.recv s (-4));
  Alcotest.(check int) "nothing consumed" 0 (Sock.consumed s)

let prop_socket_recv_conserves_bytes =
  let open QCheck in
  Test.make ~name:"socket: concatenated recvs reproduce the stream" ~count:100
    (pair string (list (int_range 1 64)))
    (fun (data, sizes) ->
       let s = Sock.of_string data in
       let buf = Buffer.create 64 in
       List.iter (fun n -> Buffer.add_string buf (Sock.recv s n)) sizes;
       let rec drain () =
         let c = Sock.recv s 97 in
         if c <> "" then begin
           Buffer.add_string buf c;
           drain ()
         end
       in
       drain ();
       Buffer.contents buf = data)

let () =
  Alcotest.run "osmodel"
    [ ("perm",
       [ Alcotest.test_case "octal roundtrip" `Quick test_perm_octal_roundtrip;
         Alcotest.test_case "owner vs other" `Quick test_perm_owner_vs_other;
         Alcotest.test_case "root bypasses" `Quick test_perm_root_bypasses;
         Alcotest.test_case "world writable" `Quick test_perm_world_writable ]);
      ("filesystem",
       [ Alcotest.test_case "create/read" `Quick test_fs_create_read;
         Alcotest.test_case "normalise .." `Quick test_fs_normalise_dotdot;
         Alcotest.test_case "symlink resolution" `Quick test_fs_symlink_resolution;
         Alcotest.test_case "chain and loop" `Quick test_fs_symlink_chain_and_loop;
         Alcotest.test_case "relative symlink" `Quick test_fs_relative_symlink_target;
         Alcotest.test_case "open permissions" `Quick test_fs_open_write_permissions;
         Alcotest.test_case "open follows symlink" `Quick
           test_fs_open_write_follows_symlink;
         Alcotest.test_case "open creates" `Quick test_fs_open_creates_missing;
         Alcotest.test_case "unlink" `Quick test_fs_unlink_and_exists;
         Alcotest.test_case "access_write" `Quick test_fs_access_write;
         Alcotest.test_case "kind/chmod" `Quick test_fs_kind_and_chmod;
         Alcotest.test_case "mkfile duplicate" `Quick test_fs_mkfile_duplicate ]);
      ("scheduler",
       [ Alcotest.test_case "interleaving count" `Quick test_sched_interleaving_count;
         Alcotest.test_case "count saturates at 63-bit" `Quick
           test_sched_interleaving_count_saturates;
         Alcotest.test_case "exhaustive merges" `Quick
           test_sched_interleavings_exhaustive;
         QCheck_alcotest.to_alcotest prop_interleavings_preserve_order;
         Alcotest.test_case "n-proc count edges" `Quick
           test_sched_interleaving_count_n_edges;
         Alcotest.test_case "finds the window" `Quick test_sched_explore_finds_window;
         Alcotest.test_case "swallows typed step errors" `Quick
           test_sched_explore_swallows_typed_errors;
         Alcotest.test_case "propagates programming errors" `Quick
           test_sched_explore_propagates_programming_errors ]);
      ("partial-order reduction",
       [ Alcotest.test_case "prunes independent" `Quick
           test_sched_por_prunes_independent;
         Alcotest.test_case "keeps conflicting" `Quick
           test_sched_por_keeps_conflicting;
         Alcotest.test_case "preserves final states" `Quick
           test_sched_por_preserves_final_states;
         Alcotest.test_case "bitmask matches reference" `Quick
           test_sched_por_bitmask_matches_ref;
         Alcotest.test_case "process limit" `Quick test_sched_por_process_limit;
         QCheck_alcotest.to_alcotest prop_por_bitmask_matches_reference ]);
      ("socket",
       [ Alcotest.test_case "chunked recv" `Quick test_socket_chunked_recv;
         Alcotest.test_case "remaining" `Quick test_socket_remaining;
         Alcotest.test_case "zero/negative" `Quick test_socket_zero_or_negative_recv;
         QCheck_alcotest.to_alcotest prop_socket_recv_conserves_bytes ]) ]
