type mutation = Drop_step of int | Dup_step of int

type io_fault =
  | Io_torn of int
  | Io_flip of int * int
  | Io_error of string
  | Io_crash

(* Events are kept as runs of one repeated value, newest run first.  A
   plan that clamps every recv of a spinning loop fires the same event
   100k times; as one run with a count it costs the injector no live
   memory per event, where a list of them would be marked by every
   major collection for the rest of the run.  [events] expands the
   runs only when asked; [event_count] sums them. *)
type run = { event : Event.t; mutable count : int }

type t = {
  plan : Plan.t;
  rng : Vulndb.Prng.t;
  mutable allocs : int;
  mutable recvs : int;
  mutable schedules : int;
  mutable store_writes : int;
  mutable runs : run list;
}

let create plan =
  { plan;
    rng = Vulndb.Prng.create ~seed:plan.Plan.seed;
    allocs = 0;
    recvs = 0;
    schedules = 0;
    store_writes = 0;
    runs = [] }

let plan t = t.plan

let events t =
  let rec repeat r n acc = if n = 0 then acc else repeat r (n - 1) (r.event :: acc) in
  List.fold_left (fun acc r -> repeat r r.count acc) [] t.runs

let event_count t = List.fold_left (fun n r -> n + r.count) 0 t.runs

let m_injected = Obs.Metrics.counter "fault.injected"

let trace_args event = [ ("seam", Event.seam event); ("detail", Event.detail event) ]

(* One more occurrence of [r]'s event.  Its text is rendered only for
   an instant a live trace keeps: the clamped-recv seam alone can fire
   300k times in one chaos run, and nothing but [--trace] reads the
   strings. *)
let repeat r =
  Obs.Metrics.incr m_injected;
  Obs.Trace.emit_with ~ph:I ~cat:"fault" "fault.injected" trace_args r.event;
  r.count <- r.count + 1

let record t event =
  match t.runs with
  | r :: _ when r.event = event -> repeat r
  | runs ->
      let r = { event; count = 0 } in
      t.runs <- r :: runs;
      repeat r

(* A clamp like the newest run's extends it without building an event
   or comparing one: a spinning recv loop clamps 100k times in a row. *)
let clamp t ~requested ~chunk =
  match t.runs with
  | ({ event = Event.Recv_clamped { requested = q; chunk = k }; _ } as r) :: _
    when q = requested && k = chunk ->
      repeat r
  | _ -> record t (Event.Recv_clamped { requested; chunk })

let chance t = function
  | None -> false
  | Some percent -> Vulndb.Prng.below t.rng 100 < percent

let heap_alloc_fails t ~requested =
  t.allocs <- t.allocs + 1;
  match t.plan.Plan.heap_fail_percent with
  | None -> false
  | Some _ as p ->
      let fails = chance t p in
      if fails then
        record t (Event.Heap_denied { requested; allocation = t.allocs });
      fails

(* The socket seam both clamps the granted chunk and, past the
   configured call count, resets the connection. *)
let recv_request t ~requested ~consumed =
  let idx = t.recvs in
  t.recvs <- idx + 1;
  (match t.plan.Plan.socket_reset_after with
   | Some k when idx >= k ->
       record t (Event.Connection_reset { recv = idx + 1 });
       Condition.fail (Condition.Socket_reset { consumed })
   | Some _ | None -> ());
  match t.plan.Plan.recv_max_chunk with
  | Some chunk when requested > chunk ->
      clamp t ~requested ~chunk;
      chunk
  | Some _ | None -> requested

(* Denial is a pure function of (seed, path), NOT a PRNG draw: the
   access(2)-style check and the later open(2) must agree on the same
   path, exactly as a sticky EACCES would in a real filesystem. *)
let fs_denies t ~path =
  match t.plan.Plan.fs_deny_percent with
  | None -> false
  | Some percent ->
      let h = Hashtbl.hash (t.plan.Plan.seed, "fs", path) in
      let denied = h mod 100 < percent in
      if denied then
        record t (Event.Fs_denied { path });
      denied

let mangle t s =
  match t.plan.Plan.bitflip_percent with
  | None -> s
  | Some _ as p ->
      if String.length s = 0 || not (chance t p) then s
      else begin
        let off = Vulndb.Prng.below t.rng (String.length s) in
        let bit = Vulndb.Prng.below t.rng 8 in
        let b = Bytes.of_string s in
        Bytes.set b off
          (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)));
        record t
          (Event.Bit_flipped { bit; byte = off; len = String.length s });
        Bytes.to_string b
      end

(* At most one fault per store write, first matching knob wins: a
   record is torn OR flipped OR denied OR orphaned, so a degraded read
   maps back to exactly one injected event.  [len] is the full on-disk
   record size (header + payload); a torn write keeps a strict prefix,
   so the checksum can never accidentally survive. *)
let store_write t ~len =
  if not (Plan.io_active t.plan) then None
  else begin
    t.store_writes <- t.store_writes + 1;
    let write = t.store_writes in
    if len > 0 && chance t t.plan.Plan.io_torn_percent then begin
      let keep = Vulndb.Prng.below t.rng len in
      record t (Event.Store_torn { write; kept = keep; len });
      Some (Io_torn keep)
    end
    else if len > 0 && chance t t.plan.Plan.io_flip_percent then begin
      let off = Vulndb.Prng.below t.rng len in
      let bit = Vulndb.Prng.below t.rng 8 in
      record t (Event.Store_flipped { write; bit; byte = off });
      Some (Io_flip (off, bit))
    end
    else if chance t t.plan.Plan.io_error_percent then begin
      let errno =
        if Vulndb.Prng.below t.rng 2 = 0 then "ENOSPC" else "EACCES"
      in
      record t (Event.Store_failed { write; errno });
      Some (Io_error errno)
    end
    else if chance t t.plan.Plan.io_crash_percent then begin
      record t (Event.Store_crashed { write });
      Some Io_crash
    end
    else None
  end

let schedule_mutation t ~steps =
  if steps = 0 then None
  else begin
    t.schedules <- t.schedules + 1;
    if chance t t.plan.Plan.sched_drop_percent then begin
      let i = Vulndb.Prng.below t.rng steps in
      record t
        (Event.Step_dropped { step = i; steps; schedule = t.schedules });
      Some (Drop_step i)
    end
    else if chance t t.plan.Plan.sched_dup_percent then begin
      let i = Vulndb.Prng.below t.rng steps in
      record t
        (Event.Step_duplicated { step = i; steps; schedule = t.schedules });
      Some (Dup_step i)
    end
    else None
  end
