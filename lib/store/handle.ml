let installed : Disk.t option Atomic.t = Atomic.make None

let set s = Atomic.set installed s

let get () = Atomic.get installed

let ambient () =
  match Atomic.get installed with
  | None -> None
  | Some _ when Fault.Hooks.sim_plan_active () -> None
  | some -> some

let cached ~tag ~key compute =
  match ambient () with
  | None -> compute ()
  | Some disk ->
      let recompute () =
        let v = compute () in
        Disk.put disk ~key ~payload:(Codec.to_payload ~tag v);
        v
      in
      (match Disk.find disk ~key with
      | None -> recompute ()
      | Some payload -> (
          match Codec.of_payload ~tag payload with
          | Some v -> v
          | None ->
              (* record verified but the payload is stale (another
                 binary's closures, wrong tag): account it like
                 corruption so the rewrite counts as a repair *)
              Disk.note_corrupt disk ~key;
              recompute ()))

let with_store s f =
  let prev = Atomic.get installed in
  Atomic.set installed s;
  Fun.protect ~finally:(fun () -> Atomic.set installed prev) f
