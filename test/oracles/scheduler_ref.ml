(* The retired list-set sleep-set enumeration, kept as the
   differential oracle for the bitmask {!Osmodel.Scheduler.schedules_por}:
   the sleep set and the explored-before-i set are int lists, grown
   with [@] and scanned with [List.mem], exactly as the production
   enumeration did before both became int bitmasks.  It has no process
   limit, and the two must emit the same schedules in the same
   order. *)

open Osmodel.Scheduler

let schedules_por ~independent procs =
  let procs = Array.of_list (List.filter (fun p -> p <> []) procs) in
  let n = Array.length procs in
  let indices = List.init n Fun.id in
  let rec go rem sleep () =
    let enabled = List.filter (fun i -> rem.(i) <> []) indices in
    if enabled = [] then Seq.Cons ([], Seq.empty)
    else begin
      let rec branches explored = function
        | [] -> Seq.Nil
        | i :: rest when List.mem i sleep -> branches explored rest
        | i :: rest ->
            let s = List.hd rem.(i) in
            let rem' = Array.copy rem in
            rem'.(i) <- List.tl rem.(i);
            let child_sleep =
              List.filter
                (fun j -> independent (List.hd rem.(j)).effects s.effects)
                (sleep @ List.rev explored)
            in
            Seq.append
              (Seq.map (fun sched -> s :: sched) (go rem' child_sleep))
              (fun () -> branches (i :: explored) rest)
              ()
      in
      branches [] enabled
    end
  in
  go procs []
