type t = {
  states : int;
  start : int;
  target : int;
  mutable transitions : (int * int * float * float) list; (* src, dst, prob, effort *)
}

let create ~states ~start ~target =
  if states <= 0 || start < 0 || start >= states || target < 0 || target >= states then
    invalid_arg "Markov.create: bad state indices";
  { states; start; target; transitions = [] }

let add_transition t ~src ~dst ~prob ~effort =
  if src < 0 || src >= t.states || dst < 0 || dst >= t.states then
    invalid_arg "Markov.add_transition: bad state";
  if prob < 0.0 || prob > 1.0 then invalid_arg "Markov.add_transition: bad probability";
  t.transitions <- (src, dst, prob, effort) :: t.transitions

let outgoing_mass t src =
  List.fold_left
    (fun acc (s, _, p, _) -> if s = src then acc +. p else acc)
    0.0 t.transitions

let normalize_with_self_loops t =
  for s = 0 to t.states - 1 do
    if s <> t.target then begin
      let mass = outgoing_mass t s in
      if mass < 1.0 -. 1e-12 then
        add_transition t ~src:s ~dst:s ~prob:(1.0 -. mass) ~effort:1.0
    end
  done

(* Gaussian elimination with partial pivoting. *)
let solve_linear a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let ok = ref true in
  for col = 0 to n - 1 do
    if !ok then begin
      (* pivot *)
      let pivot = ref col in
      for row = col + 1 to n - 1 do
        if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
      done;
      if Float.abs a.(!pivot).(col) < 1e-12 then ok := false
      else begin
        let tmp = a.(col) in
        a.(col) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tb = b.(col) in
        b.(col) <- b.(!pivot);
        b.(!pivot) <- tb;
        for row = col + 1 to n - 1 do
          let factor = a.(row).(col) /. a.(col).(col) in
          for k = col to n - 1 do
            a.(row).(k) <- a.(row).(k) -. (factor *. a.(col).(k))
          done;
          b.(row) <- b.(row) -. (factor *. b.(col))
        done
      end
    end
  done;
  if not !ok then None
  else begin
    let x = Array.make n 0.0 in
    for row = n - 1 downto 0 do
      let sum = ref b.(row) in
      for k = row + 1 to n - 1 do
        sum := !sum -. (a.(row).(k) *. x.(k))
      done;
      x.(row) <- !sum /. a.(row).(row)
    done;
    Some x
  end

(* Reachability of [target] from [s] through positive-probability
   transitions; states that cannot reach the target have infinite
   expected effort. *)
let can_reach t =
  let reach = Array.make t.states false in
  reach.(t.target) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (src, dst, p, _) ->
         if p > 0.0 && reach.(dst) && not reach.(src) then begin
           reach.(src) <- true;
           changed := true
         end)
      t.transitions;
  done;
  reach

(* First-step analysis: E[s] = sum_d p(s,d) (effort(s,d) + E[d]),
   E[target] = 0.  Rearranged: E[s] - sum_d p(s,d) E[d] = c(s). *)
let metf t =
  let reach = can_reach t in
  if not reach.(t.start) then None
  else begin
    (* Only solve over states that reach the target; others are
       irrelevant (and would make the system singular). *)
    let live = ref [] in
    for s = t.states - 1 downto 0 do
      if reach.(s) && s <> t.target then live := s :: !live
    done;
    let live = Array.of_list !live in
    let index = Hashtbl.create 8 in
    Array.iteri (fun i s -> Hashtbl.replace index s i) live;
    let n = Array.length live in
    let a = Array.make_matrix n n 0.0 and b = Array.make n 0.0 in
    Array.iteri
      (fun i s ->
         a.(i).(i) <- 1.0;
         List.iter
           (fun (src, dst, p, effort) ->
              if src = s && p > 0.0 then begin
                b.(i) <- b.(i) +. (p *. effort);
                if dst <> t.target && reach.(dst) then begin
                  let j = Hashtbl.find index dst in
                  a.(i).(j) <- a.(i).(j) -. p
                end
              end)
           t.transitions)
      live;
    match solve_linear a b with
    | None -> None
    | Some x -> (
        match Hashtbl.find_opt index t.start with
        | Some i -> Some x.(i)
        | None -> None)
  end

(* ------------------------------------------------------------------ *)

(* A chain over the trace's steps.  A hidden step is an obstacle the
   attacker probes with per-attempt success probability [retry]
   (geometric retries, one effort unit each); a spec-accepted step
   passes deterministically for one unit; a rejecting step has
   probability 0, so METF becomes infinite ([metf] = [None]).  The
   chain ends in the compromised state when the trace completed. *)
let of_trace ~retry trace =
  if retry <= 0.0 || retry > 1.0 then invalid_arg "Markov.of_trace: bad retry";
  let steps = trace.Pfsm.Trace.steps in
  let n = List.length steps in
  (* state i = about to attempt step i; state n = compromised. *)
  let t = create ~states:(n + 1) ~start:0 ~target:n in
  List.iteri
    (fun i step ->
       let v = step.Pfsm.Trace.verdict in
       match v.Pfsm.Primitive.final, v.Pfsm.Primitive.hidden with
       | Pfsm.Primitive.Accept_state, true ->
           (* An obstacle: geometric probing. *)
           add_transition t ~src:i ~dst:(i + 1) ~prob:retry ~effort:1.0
       | Pfsm.Primitive.Accept_state, false ->
           add_transition t ~src:i ~dst:(i + 1) ~prob:1.0 ~effort:1.0
       | (Pfsm.Primitive.Reject_state | Pfsm.Primitive.Spec_check_state), _ ->
           (* The exploit is stopped here: no outgoing success. *)
           ())
    steps;
  (* The trace may have stopped early: if it did not complete, the
     last reached state has no path to the target at all. *)
  normalize_with_self_loops t;
  t

let metf_of_model ~retry model ~scenario =
  let trace = Pfsm.Model.run model ~env:scenario in
  if not trace.Pfsm.Trace.completed then None
  else metf (of_trace ~retry trace)
