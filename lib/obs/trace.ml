(* Deterministic span/event tracing over virtual time.

   The problem: per-domain buffers fill in scheduling order, which
   differs run to run and job count to job count.  The fix is to make
   every event's *position* a pure function of the program, not the
   schedule.  Each event is tagged with a coordinate:

     epoch — a global generation counter bumped by the Par trace hooks
             at every top-level map start and end.  Orchestrator code
             between maps, and the items of each map, therefore live in
             distinct epochs, in program order.
     slot  — the Par item index whose execution emitted the event
             (-1 for the orchestrating domain outside any item).  Set
             by the [on_item] hook; within a slot execution is
             sequential, including nested (degraded) maps.
     seq   — a per-(epoch, slot) emission counter.

   Merging = sorting by (epoch, slot, seq).  None of the three
   components can depend on which domain ran an item or in what order,
   so the merged trace is byte-identical at every [-j] — the qcheck
   property test_obs checks exactly that.  Virtual time is the event's
   rank in the merged order (composable with Resilience.Deadline fuel,
   which spans attach as args).

   Buffers are bounded: a slot keeps its first [cap_per_slot] events
   per epoch and counts the rest as dropped — the cutoff depends only
   on [seq], so drops are deterministic too. *)

type ph = B | E | I

type event = {
  epoch : int;
  slot : int;
  seq : int;
  ph : ph;
  name : string;
  cat : string;
  args : (string * string) list;
  wall_us : int option;  (* only when a wall clock is installed *)
}

let cap_per_slot = 4096

(* ---- global state -------------------------------------------------- *)

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0

(* Epoch value captured by [start]: events record epochs relative to
   it, so a trace's serialization does not depend on how many maps ran
   earlier in the process (byte-identity across repeated in-process
   runs, not just across job counts). *)
let epoch_base = Atomic.make 0

let wall_clock : (unit -> float) option ref = ref None
let wall_t0 = ref 0.0

type dbuf = {
  mutable events : event list;  (* newest first *)
  mutable cur_epoch : int;
  mutable cur_slot : int;
  mutable seq : int;
  mutable dropped : int;
}

let lock = Mutex.create ()
let bufs : dbuf list ref = ref []

let dls : dbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let d =
        { events = []; cur_epoch = -1; cur_slot = -1; seq = 0; dropped = 0 }
      in
      Mutex.lock lock;
      bufs := d :: !bufs;
      Mutex.unlock lock;
      d)

let enabled () = Atomic.get enabled_flag

(* ---- emission ------------------------------------------------------ *)

let emit ~ph ?(cat = "") ?(args = []) name =
  if Atomic.get enabled_flag then begin
    let d = Domain.DLS.get dls in
    let ep = Atomic.get epoch in
    if d.cur_epoch <> ep then begin
      d.cur_epoch <- ep;
      d.seq <- 0
    end;
    if d.seq >= cap_per_slot then d.dropped <- d.dropped + 1
    else begin
      let wall_us =
        match !wall_clock with
        | None -> None
        | Some clock -> Some (int_of_float ((clock () -. !wall_t0) *. 1e6))
      in
      d.events <-
        { epoch = ep - Atomic.get epoch_base; slot = d.cur_slot; seq = d.seq;
          ph; name; cat; args; wall_us }
        :: d.events;
      d.seq <- d.seq + 1
    end
  end

(* ---- Par hooks ----------------------------------------------------- *)

(* Installed once, at module initialization; active whether or not
   tracing is on — the epoch/slot bookkeeping must already be in place
   the moment [start] flips the flag, and the batch-shape metrics are
   always-on. *)

let m_maps = Metrics.counter "par.maps"
let m_items = Metrics.counter "par.items"
let h_batch = Metrics.histogram "par.map.items"
let g_occupancy = Metrics.gauge "par.queue.occupancy"

let () =
  Par.set_trace_hooks
    {
      on_map_start =
        (fun ~total ->
          Metrics.incr m_maps;
          Metrics.observe h_batch total;
          Metrics.observe_gauge g_occupancy total;
          ignore (Atomic.fetch_and_add epoch 1);
          emit ~ph:I ~cat:"par"
            ~args:[ ("items", string_of_int total) ]
            "par.map");
      on_item =
        (fun i ->
          Metrics.incr m_items;
          let d = Domain.DLS.get dls in
          d.cur_slot <- i;
          d.cur_epoch <- Atomic.get epoch;
          d.seq <- 0);
      on_map_end =
        (fun () ->
          let d = Domain.DLS.get dls in
          d.cur_slot <- -1;
          ignore (Atomic.fetch_and_add epoch 1));
    }

(* ---- lifecycle ----------------------------------------------------- *)

let clear_locked () =
  List.iter
    (fun d ->
      d.events <- [];
      d.dropped <- 0;
      d.seq <- 0;
      d.cur_epoch <- -1)
    !bufs

let start () =
  Mutex.lock lock;
  clear_locked ();
  Mutex.unlock lock;
  (match !wall_clock with
  | Some clock -> wall_t0 := clock ()
  | None -> ());
  Atomic.set epoch_base (Atomic.get epoch);
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let set_wall_clock c = wall_clock := c

let compare_event a b =
  let c = compare a.epoch b.epoch in
  if c <> 0 then c
  else
    let c = compare a.slot b.slot in
    if c <> 0 then c else compare a.seq b.seq

let drain () =
  Atomic.set enabled_flag false;
  Mutex.lock lock;
  let all = List.concat_map (fun d -> d.events) !bufs in
  clear_locked ();
  Mutex.unlock lock;
  List.sort compare_event all

let dropped () =
  Mutex.lock lock;
  let n = List.fold_left (fun acc d -> acc + d.dropped) 0 !bufs in
  Mutex.unlock lock;
  n

(* ---- exporters ----------------------------------------------------- *)

let ph_to_string = function B -> "B" | E -> "E" | I -> "i"

let args_json args = List.map (fun (k, v) -> (k, Json.Str v)) args

let wall_json = function None -> [] | Some us -> [ ("wall_us", Json.Int us) ]

let to_jsonl events =
  let b = Buffer.create 4096 in
  List.iteri
    (fun vt e ->
      Json.(
        to_buffer ~layout:Compact b
          (Obj
             ([ ("vt", Int vt); ("epoch", Int e.epoch); ("slot", Int e.slot);
                ("seq", Int e.seq); ("ph", Str (ph_to_string e.ph)); ("name", Str e.name);
                ("cat", Str e.cat); ("args", Obj (args_json e.args)) ]
              @ wall_json e.wall_us)));
      Buffer.add_char b '\n')
    events;
  Buffer.contents b

(* Chrome about:tracing / Perfetto.  ts is virtual time (the event's
   merged rank, displayed as microseconds); tid maps slot -1 -> 0 so
   the orchestrator renders as the first track. *)
let to_chrome events =
  let chrome vt e =
    Json.(
      Obj
        [ ("name", Str e.name); ("cat", Str (if e.cat = "" then "app" else e.cat));
          ("ph", Str (ph_to_string e.ph)); ("ts", Int vt); ("pid", Int 0);
          ("tid", Int (e.slot + 1));
          ("args", Obj (args_json e.args @ wall_json e.wall_us)) ])
  in
  Json.(
    to_string ~layout:Compact (Obj [ ("traceEvents", List (List.mapi chrome events)) ]))
