(* The host's speed, measured by a fixed kernel that lives here and
   not in dfsm, so no change to dfsm can move it.

   On a shared host, neighbours slow every process, at times by a
   factor of three for minutes on end, and dfsm and this kernel slow
   together.  The benchmark runs the kernel before and after every
   window and set-up and scales the step's time by [reference_s] over
   the mean of the two: the result is the time at the reference host's
   speed.  The kernel allocates, hashes and sorts on one domain.  A
   kernel on two domains tracked dfsm less well: its time doubled in
   some phases in which dfsm's did not. *)

(* The kernel's time on the reference host (2 cores of an Intel Xeon
   at 2.1 GHz, OCaml 5.1.1). *)
let reference_s = 0.030

let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    let k = (i * 7919) land 0x3FFFF in
    Hashtbl.replace h k (string_of_int i);
    acc := !acc + String.length (Hashtbl.find h k)
  done;
  let a = Array.init 40_000 (fun i -> (i * 104729) land 0xFFFFF) in
  Array.sort compare a;
  let pairs = List.init 20_000 (fun i -> (i, float_of_int i)) in
  let kept = List.fold_left (fun l (i, f) -> if i land 3 = 0 then (f, i) :: l else l) [] pairs in
  !acc + a.(1000) + List.length kept

(* Seconds for one kernel. *)
let measure () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  Unix.gettimeofday () -. t0
