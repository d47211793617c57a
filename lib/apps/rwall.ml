module Fs = Osmodel.Filesystem
module Sched = Osmodel.Scheduler
module E = Osmodel.Effect
module P = Pfsm.Predicate

type config = {
  utmp_world_writable : bool;
  terminal_check : bool;
}

let vulnerable = { utmp_world_writable = true; terminal_check = false }

type t = {
  fs : Fs.t;
  config : config;
}

let utmp_path = "/etc/utmp"

let attacker = Osmodel.User.Regular "mallory"

let setup ?(config = vulnerable) () =
  let fs = Fs.create () in
  let utmp_mode =
    Osmodel.Perm.of_octal (if config.utmp_world_writable then 0o666 else 0o644)
  in
  Fs.mkfile fs utmp_path ~owner:Osmodel.User.Root ~mode:utmp_mode "pts/25\n";
  Fs.mkfile fs "/etc/passwd" ~owner:Osmodel.User.Root
    ~mode:(Osmodel.Perm.of_octal 0o644) "root:x:0:0::/root:/bin/sh\n";
  Fs.mkfile fs "/dev/pts/25" ~owner:attacker ~mode:(Osmodel.Perm.of_octal 0o620)
    ~kind:Fs.Terminal "";
  { fs; config }

let fs t = t.fs

let add_utmp_entry t ~as_user entry =
  Outcome.guard @@ fun () ->
  if not (Fs.access_write t.fs utmp_path ~as_user) then
    Outcome.Refused "no write permission on /etc/utmp"
  else begin
    let fd = Fs.open_write t.fs utmp_path ~as_user in
    Fs.append t.fs fd (entry ^ "\n");
    Outcome.Benign (Printf.sprintf "added utmp entry %S" entry)
  end

let utmp_entries t =
  Fs.content t.fs utmp_path
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")

let write_to_entry t ~message entry =
  Outcome.guard @@ fun () ->
  (* rwalld resolves entries relative to /dev, so "../etc/passwd"
     escapes to the real password file. *)
  let path = Fs.resolve t.fs ~cwd:"/dev" entry in
  match Fs.kind_of t.fs path with
  | exception Fs.Fs_error e -> Outcome.Crash (Fs.error_message e)
  | kind ->
      if t.config.terminal_check && kind <> Fs.Terminal then
        Outcome.Refused (Printf.sprintf "%s is not a terminal" path)
      else begin
        let fd = Fs.open_write t.fs path ~as_user:Osmodel.User.Root in
        Fs.append t.fs fd message;
        match kind with
        | Fs.Terminal -> Outcome.Benign (Printf.sprintf "message written to %s" path)
        | Fs.Regular_file -> Outcome.File_overwritten { path; data = message }
      end

let broadcast t ~message = List.map (write_to_entry t ~message) (utmp_entries t)

let worst outcomes =
  let rank o =
    match Outcome.verdict o with
    | Outcome.Compromised -> 2
    | Outcome.Blocked -> 1
    | Outcome.Normal -> 0
  in
  match outcomes with
  | [] -> Outcome.Benign "nothing happened"
  | o :: rest -> List.fold_left (fun acc x -> if rank x > rank acc then x else acc) o rest

let run_attack t ~message =
  Outcome.guard @@ fun () ->
  match add_utmp_entry t ~as_user:attacker "../etc/passwd" with
  | (Outcome.Refused _ | Outcome.Resource_fault _) as blocked -> blocked
  | _ -> worst (broadcast t ~message)

(* ------------------------------------------------------------------ *)
(* Step-level race system: rwalld's entry handling as atomic steps.    *)

type race_config = { recheck_at_open : bool }

let pts_path = "/dev/pts/25"

let passwd_path = "/etc/passwd"

let syslog_path = "/var/adm/messages"

let race_message = "rwall broadcast\n"

type race_state = {
  rfs : Fs.t;
  mutable entry : string option;
  mutable tty_ok : bool;
  mutable syslog_fd : Fs.fd option;
  mutable passwd_before : string;
}

let race_fresh () =
  let t = setup () in
  { rfs = t.fs; entry = None; tty_ok = false; syslog_fd = None;
    passwd_before = Fs.content t.fs passwd_path }

(* rwalld resolves the entry relative to /dev; once mallory has
   symlinked the terminal onto /etc/passwd, resolution reaches the
   password file — so every resolving step also declares the attr
   read it would then perform there. *)
let daemon_steps config =
  [ Sched.step_e "rwalld: read /etc/utmp"
      ~effects:[ E.reads (E.Path_attr utmp_path); E.reads (E.Path utmp_path) ]
      (fun st ->
        match String.split_on_char '\n' (Fs.read st.rfs utmp_path ~as_user:Osmodel.User.Root) with
        | entry :: _ when entry <> "" -> st.entry <- Some entry
        | _ -> st.entry <- None);
    Sched.step_e "rwalld: stat entry (terminal check)"
      ~effects:[ E.reads (E.Path_attr pts_path); E.reads (E.Path_attr passwd_path) ]
      (fun st ->
        match st.entry with
        | None -> ()
        | Some e ->
            let path = Fs.resolve st.rfs ~cwd:"/dev" e in
            st.tty_ok <- Fs.kind_of st.rfs path = Fs.Terminal);
    Sched.step_e "rwalld: open entry and write message as root"
      ~effects:[ E.reads (E.Path_attr pts_path); E.reads (E.Path_attr passwd_path);
                 E.creates (E.Path pts_path); E.writes (E.Path pts_path);
                 E.writes (E.Path passwd_path) ]
      (fun st ->
        match st.entry with
        | None -> ()
        | Some e ->
            if st.tty_ok then begin
              let path = Fs.resolve st.rfs ~cwd:"/dev" e in
              if config.recheck_at_open && Fs.kind_of st.rfs path <> Fs.Terminal then ()
              else begin
                let fd = Fs.open_write st.rfs path ~as_user:Osmodel.User.Root in
                Fs.append st.rfs fd race_message
              end
            end) ]

let mallory_steps =
  [ Sched.step_e "mallory: unlink /dev/pts/25"
      ~effects:[ E.unlinks (E.Path pts_path) ]
      (fun st -> Fs.unlink st.rfs pts_path ~as_user:attacker);
    Sched.step_e "mallory: symlink /dev/pts/25 -> /etc/passwd"
      ~effects:[ E.creates (E.Path pts_path) ]
      (fun st -> Fs.symlink st.rfs ~link:pts_path ~target:passwd_path) ]

(* syslogd churning on its own file — footprint-disjoint from the
   race, pruned by partial-order reduction, never flagged. *)
let race_bystander_steps =
  [ Sched.step_e "syslogd: open /var/adm/messages"
      ~effects:[ E.reads (E.Path_attr syslog_path); E.creates (E.Path syslog_path) ]
      (fun st ->
        st.syslog_fd <- Some (Fs.open_write st.rfs syslog_path ~as_user:Osmodel.User.Root));
    Sched.step_e "syslogd: append line"
      ~effects:[ E.writes (E.Path syslog_path) ]
      (fun st ->
        match st.syslog_fd with
        | Some fd -> Fs.append st.rfs fd "kernel: up\n"
        | None -> ());
    Sched.step_e "syslogd: stat /var/adm/messages"
      ~effects:[ E.reads (E.Path_attr syslog_path) ]
      (fun st -> ignore (Fs.exists st.rfs syslog_path));
    Sched.step_e "syslogd: read /var/adm/messages"
      ~effects:[ E.reads (E.Path_attr syslog_path); E.reads (E.Path syslog_path) ]
      (fun st -> ignore (Fs.read st.rfs syslog_path ~as_user:Osmodel.User.Root));
    Sched.step_e "syslogd: unlink /var/adm/messages"
      ~effects:[ E.unlinks (E.Path syslog_path) ]
      (fun st ->
        st.syslog_fd <- None;
        Fs.unlink st.rfs syslog_path ~as_user:Osmodel.User.Root) ]

let race_corrupted st =
  if Fs.content st.rfs passwd_path <> st.passwd_before then
    Some (Outcome.File_overwritten { path = passwd_path; data = race_message })
  else None

(* ------------------------------------------------------------------ *)
(* The Figure-6 FSM model.                                             *)

let attack_scenario =
  Pfsm.Env.empty
  |> Pfsm.Env.add_bool "user.is_root" false
  |> Pfsm.Env.add_str "target.kind" "regular file"

let benign_scenario =
  Pfsm.Env.empty
  |> Pfsm.Env.add_bool "user.is_root" true
  |> Pfsm.Env.add_str "target.kind" "terminal"

let model t =
  let root_spec = P.Env_flag "user.is_root" in
  let pfsm1 =
    Pfsm.Primitive.make ~name:"pFSM1" ~kind:Pfsm.Taxonomy.Content_attribute_check
      ~activity:"user request of writing /etc/utmp"
      ~spec:root_spec
      ~impl:(if t.config.utmp_world_writable then P.True else root_spec)
  in
  let utmp_effect env =
    Pfsm.Env.add_bool "utmp_contains_passwd_entry"
      (not (Pfsm.Env.flag "user.is_root" env))
      env
  in
  let op1 =
    Pfsm.Operation.make ~name:"Write to /etc/utmp"
      ~object_name:"the file /etc/utmp"
      ~effect_label:"\"../etc/passwd\" entry added to /etc/utmp"
      ~effect_:utmp_effect
      [ Pfsm.Operation.stage ~action_label:"open /etc/utmp for the user" pfsm1 ]
  in
  let terminal_spec =
    P.Str_eq (P.Env_val "target.kind", P.Lit (Pfsm.Value.Str "terminal"))
  in
  let pfsm2 =
    Pfsm.Primitive.make ~name:"pFSM2" ~kind:Pfsm.Taxonomy.Object_type_check
      ~activity:"get a file from /etc/utmp; write user message to the terminal or file"
      ~spec:terminal_spec
      ~impl:(if t.config.terminal_check then terminal_spec else P.True)
  in
  let write_effect env =
    Pfsm.Env.add_bool "passwd_overwritten"
      (not
         (String.equal (Pfsm.Env.get_str "target.kind" env) "terminal"))
      env
  in
  let op2 =
    Pfsm.Operation.make ~name:"Rwall daemon writes messages"
      ~object_name:"the target file named by the utmp entry"
      ~effect_label:"Rwall daemon writes user message to regular file /etc/passwd"
      ~effect_:write_effect
      [ Pfsm.Operation.stage ~action_label:"write message" pfsm2 ]
  in
  Pfsm.Model.make ~name:"Solaris Rwall Arbitrary File Corruption"
    ~description:
      "A world-writable /etc/utmp lets a regular user add \"../etc/passwd\"; rwalld \
       writes its broadcast message to every entry without checking the file type."
    [ Pfsm.Model.bind
        ~input:(fun _ -> Pfsm.Value.Str utmp_path)
        ~input_label:"the file /etc/utmp" op1;
      Pfsm.Model.bind
        ~input:(fun env -> Pfsm.Env.get "target.kind" env)
        ~input_label:"the file named by the utmp entry" op2 ]
