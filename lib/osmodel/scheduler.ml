type 'st step = { label : string; effects : Effect.t list; run : 'st -> unit }

let step label run = { label; effects = []; run }

let step_e label ~effects run = { label; effects; run }

(* Lazy enumeration of the merges, in the same order the eager list
   version produced: all merges starting with [x] before all merges
   starting with [y]. *)
let rec merge_seq xs ys () =
  match xs, ys with
  | [], _ -> Seq.Cons (ys, Seq.empty)
  | _, [] -> Seq.Cons (xs, Seq.empty)
  | x :: xs', y :: ys' ->
      Seq.append
        (Seq.map (fun rest -> x :: rest) (merge_seq xs' ys))
        (Seq.map (fun rest -> y :: rest) (merge_seq xs ys'))
        ()

let interleavings_seq xs ys = merge_seq xs ys

let interleavings xs ys = List.of_seq (merge_seq xs ys)

(* C(n+m, n), multiplicatively.  [acc] is C(big+i-1, i-1) before step
   [i], so [acc * (big+i) / i] divides exactly; computing it as
   [q*(big+i) + r*(big+i)/i] with q = acc/i, r = acc mod i keeps every
   intermediate at most as large as the true value, which lets us
   saturate to [max_int] exactly when the true count overflows. *)
let binom_step acc ~i ~mi =
  let q = acc / i and r = acc mod i in
  if (q <> 0 && mi > max_int / q) || (r <> 0 && mi > max_int / r) then max_int
  else
    let a = q * mi and b = r * mi / i in
    if a > max_int - b then max_int else a + b

let interleaving_count n m =
  if n < 0 || m < 0 then invalid_arg "Scheduler.interleaving_count: negative length";
  let k = min n m and big = max n m in
  if k = 0 then 1
  else if big > max_int - k then max_int
  else
    let rec go acc i =
      if i > k then acc else go (binom_step acc ~i ~mi:(big + i)) (i + 1)
    in
    go 1 1

type 'r verdict = { schedule : string list; result : 'r }

type 'r exploration = {
  verdicts : 'r verdict list;
  coverage : Fault.Budget.coverage;
  explored : int;
}

(* The scheduler's own fault seam: a perturbed schedule drops or
   replays one step before running. *)
let perturb steps =
  match Fault.Hooks.schedule_mutation ~steps:(List.length steps) with
  | None -> steps
  | Some (Fault.Injector.Drop_step i) -> List.filteri (fun j _ -> j <> i) steps
  | Some (Fault.Injector.Dup_step i) ->
      List.concat (List.mapi (fun j s -> if j = i then [ s; s ] else [ s ]) steps)

let run_allocs = Obs.Allocs.scope "scheduler.run"

let run_schedules ?budget ~init ~check ~total schedules =
  Obs.Allocs.measure run_allocs @@ fun () ->
  let budget = match budget with Some b -> b | None -> Fault.Budget.unlimited () in
  let covered = ref 0 in
  let verdicts = ref [] in
  (* [drained] distinguishes "enumerated every schedule" from "the
     budget stopped us": under partial-order reduction the number of
     schedules run is below [total] even when coverage is complete. *)
  let rec go seq =
    match seq () with
    | Seq.Nil -> true
    | Seq.Cons (steps, rest) ->
        if Fault.Budget.take budget then begin
          incr covered;
          let steps = perturb steps in
          let st = init () in
          let ran =
            List.map
              (fun s ->
                 (* A failed syscall does not stop the attacker: the
                    osmodel's typed errors are no-ops for that step.
                    Programming errors (Invalid_argument, Failure, ...)
                    propagate — swallowing them hid real bugs. *)
                 (try s.run st with
                  | Filesystem.Fs_error _ | Fault.Condition.Simulated _ -> ());
                 s.label)
              steps
          in
          (match check st with
           | Some result -> verdicts := { schedule = ran; result } :: !verdicts
           | None -> ());
          go rest
        end
        else false
  in
  let drained = go schedules in
  { verdicts = List.rev !verdicts;
    explored = !covered;
    coverage =
      (if drained then Fault.Budget.Complete
       else Fault.Budget.coverage ~covered:!covered ~total) }

(* ---- sleep-set partial-order reduction ---------------------------- *)

(* Godefroid-style sleep sets over the tree of remaining suffixes.  A
   "transition" is the head step of one process; the state space is
   acyclic (every step consumes one element of one suffix), for which
   sleep sets alone preserve every terminal state: each Mazurkiewicz
   trace keeps at least one representative, so any property of the
   final state ([check]) is decided exactly as under full enumeration.

   At a node, transitions are explored in process order; exploring
   process [i] passes the child the sleep set
     { j in sleep ∪ explored-before-i | step_j independent of step_i }
   and a node whose enabled transitions are all asleep emits nothing —
   its schedules are permutations of branches already explored.

   The sleep set, the explored-before-i set and the enabled set are
   each one immediate int, with process indices as bit positions
   (membership = one [land], union = one [lor], per-branch allocation
   zero).  Branches are taken in ascending process index.  The
   original list-of-int version of the same recurrence is the test
   oracle [Scheduler_ref]; the two must stay schedule-for-schedule
   identical.  More processes than bits in an int would need wider
   masks; no model comes close, so that case is an [Invalid_argument]
   rather than dead multi-word code. *)
let max_por_procs = Sys.int_size - 1

let schedules_por ~independent procs =
  let arr = Array.of_list (List.filter (fun p -> p <> []) procs) in
  let n = Array.length arr in
  if n > max_por_procs then
    invalid_arg
      (Printf.sprintf
         "Scheduler.schedules_por: %d processes (at most %d)" n max_por_procs);
  let rec go rem sleep () =
    let enabled = ref 0 in
    for i = n - 1 downto 0 do
      if rem.(i) <> [] then enabled := !enabled lor (1 lsl i)
    done;
    if !enabled = 0 then Seq.Cons ([], Seq.empty)
    else begin
      let enabled = !enabled in
      (* [explored] holds the awake branches already taken at this
         node (bits below [i] only, by construction of the scan) *)
      let rec branches explored i =
        if i >= n then Seq.Nil
        else if enabled land (1 lsl i) = 0 || sleep land (1 lsl i) <> 0
        then branches explored (i + 1)
        else begin
          let s = List.hd rem.(i) in
          let rem' = Array.copy rem in
          rem'.(i) <- List.tl rem.(i);
          let candidates = sleep lor explored in
          let child_sleep = ref 0 in
          for j = 0 to n - 1 do
            if
              candidates land (1 lsl j) <> 0
              && independent (List.hd rem.(j)).effects s.effects
            then child_sleep := !child_sleep lor (1 lsl j)
          done;
          Seq.append
            (Seq.map (fun sched -> s :: sched) (go rem' !child_sleep))
            (fun () -> branches (explored lor (1 lsl i)) (i + 1))
            ()
        end
      in
      branches 0 0
    end
  in
  go arr 0

(* Pick the head of any non-empty sequence as the next step, recurse. *)
let rec merge_all_seq seqs () =
  let seqs = List.filter (fun s -> s <> []) seqs in
  if seqs = [] then Seq.Cons ([], Seq.empty)
  else
    Seq.concat
      (List.to_seq
         (List.mapi
            (fun i seq ->
               match seq with
               | [] -> Seq.empty
               | head :: tail ->
                   let rest =
                     List.mapi (fun j s -> if j = i then tail else s) seqs
                   in
                   Seq.map (fun m -> head :: m) (merge_all_seq rest))
            seqs))
      ()

let interleavings_n_seq seqs = merge_all_seq seqs

let interleavings_n seqs = List.of_seq (merge_all_seq seqs)

let schedules_n ?independent procs =
  match independent with
  | None -> interleavings_n_seq procs
  | Some indep -> schedules_por ~independent:indep procs

let mul_sat a b = if a <> 0 && b > max_int / a then max_int else a * b

let interleaving_count_n lengths =
  (* multiply (n_prefix + k choose k) over the sequences *)
  let rec go acc consumed = function
    | [] -> acc
    | n :: rest -> go (mul_sat acc (interleaving_count n consumed)) (consumed + n) rest
  in
  go 1 0 lengths

(* registered on first use, by name: a shared [lazy] is not safe to
   force from two domains at once *)
let por_pruned () = Obs.Metrics.counter "scheduler.por_pruned"

let record_pruning ~independent ~total exploration =
  (if independent <> None && total < max_int
      && Fault.Budget.complete exploration.coverage then
     Obs.Metrics.add (por_pruned ()) (total - exploration.explored));
  exploration

let explore ?budget ?independent ~init ~a ~b ~check () =
  let total = interleaving_count (List.length a) (List.length b) in
  let schedules =
    match independent with
    | None -> interleavings_seq a b
    | Some indep -> schedules_por ~independent:indep [ a; b ]
  in
  record_pruning ~independent ~total
    (run_schedules ?budget ~init ~check ~total schedules)

let explore_n ?budget ?independent ~init ~procs ~check () =
  let total = interleaving_count_n (List.map List.length procs) in
  record_pruning ~independent ~total
    (run_schedules ?budget ~init ~check ~total (schedules_n ?independent procs))
