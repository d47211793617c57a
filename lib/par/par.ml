(* Deterministic multicore runtime: a fixed-size domain pool with
   chunked, index-ordered map/filter_map.

   The determinism contract: for a pure item function [f], every entry
   of the result lands at the index of its input, so the reduced
   output is byte-identical to the sequential run for any job count —
   parallelism changes only the wall-clock, never the value.  Code
   whose meaning depends on execution order (an installed fault
   injector's PRNG stream, for instance) registers a serial guard and
   is transparently run sequentially in the calling domain. *)

(* ---- per-item seed splitting -------------------------------------- *)

module Seed = struct
  (* splitmix64 finalizer over (seed, index): child streams are
     decorrelated from the parent and from each other, and depend only
     on the pair — not on which domain runs the item or in what order.
     Seeded fan-outs must draw from a child stream per item, never
     from a shared generator.  [mix64] is inlined so that [child]
     boxes no [int64]. *)
  let[@inline] mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
              0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
              0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let child ~seed ~index =
    let golden = 0x9E3779B97F4A7C15L in
    let z =
      mix64 (Int64.add (Int64.of_int seed)
               (Int64.mul golden (Int64.of_int (index + 1))))
    in
    Int64.to_int (Int64.shift_right_logical z 2)
end

(* ---- job-count configuration -------------------------------------- *)

let max_jobs = 128

(* Decimal digits only: [int_of_string] alone would also take "0x2",
   "+2" and "1_0" (ten jobs). *)
let parse_jobs s =
  if s = "" || not (String.for_all (function '0' .. '9' -> true | _ -> false) s)
  then Error (Printf.sprintf "invalid job count %S (expected decimal digits)" s)
  else
    match int_of_string_opt s with
    | Some n when n < 1 ->
        Error (Printf.sprintf "invalid job count %d (must be >= 1)" n)
    | Some n -> Ok (min n max_jobs)
    | None -> Ok max_jobs (* more digits than an int holds *)

let env_var = "DFSM_JOBS"

let jobs_from_env () =
  match Sys.getenv_opt env_var with
  | None -> Ok None
  | Some s -> (
      match parse_jobs s with
      | Ok n -> Ok (Some n)
      | Error e -> Error (env_var ^ ": " ^ e))

(* The configured job count.  [None] until first use; resolved from
   DFSM_JOBS, falling back to the hardware count.  A malformed
   environment value is ignored here (library users keep working); the
   CLI validates it up front via [configure] and exits 2. *)
let jobs_ref = ref None

let recommended () = min max_jobs (Domain.recommended_domain_count ())

let default_jobs () =
  match jobs_from_env () with
  | Ok (Some n) -> n
  | Ok None | Error _ -> recommended ()

let jobs () =
  match !jobs_ref with
  | Some n -> n
  | None ->
      let n = default_jobs () in
      jobs_ref := Some n;
      n

(* Process-unique tags for code that needs collision-free scratch
   names (e.g. a store's tmp files) while running on several pool
   domains at once: a plain counter would race, a per-domain counter
   would collide across domains. *)
let tag_counter = Atomic.make 0

let unique_tag () = Atomic.fetch_and_add tag_counter 1

(* ---- typed pool errors -------------------------------------------- *)

(* A result slot left empty after a completed job is a pool bug (the
   item was never run, or its write was lost).  It surfaces as a typed
   error carrying enough context to diagnose which worker claimed the
   item — never as a bare [assert false]. *)
exception Error of { batch : string; index : int; worker : int }

let () =
  Printexc.register_printer (function
    | Error { batch; index; worker } ->
        Some
          (Printf.sprintf
             "Par.Error: batch %S lost the result of item %d (claimed by %s)"
             batch index
             (if worker < 0 then "no worker" else "worker " ^ string_of_int worker))
    | _ -> None)

(* ---- trace hooks --------------------------------------------------- *)

(* Observability side-channel (used by Obs.Trace): called around every
   top-level map so a tracer can tag events with the item index that
   produced them and merge per-domain buffers back into input order.
   Hooks must be pure bookkeeping — they run on the hot path and must
   never raise. *)
type trace_hooks = {
  on_map_start : total:int -> unit;  (* submitting domain, before any item *)
  on_item : int -> unit;             (* running domain, before item [i] *)
  on_map_end : unit -> unit;         (* submitting domain, after reduction *)
}

let trace_hooks : trace_hooks option ref = ref None

let set_trace_hooks h = trace_hooks := Some h

(* ---- the domain pool ---------------------------------------------- *)

type job = {
  run : int -> unit;          (* total-abstinence: must never raise *)
  total : int;
  chunk : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  claimed : int array;        (* worker id that grabbed each index; -1 = nobody *)
}

type pool = {
  size : int;                          (* worker domains, = jobs - 1 *)
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable current : (int * job) option;  (* generation * job *)
  mutable generation : int;
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

(* Set while a domain (worker or submitter) is inside a pool task:
   nested parallel maps degrade to sequential instead of deadlocking
   on the single shared pool. *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let entered () =
  let r = Domain.DLS.get in_task in
  let prev = !r in
  r := true;
  prev

let leave prev = Domain.DLS.get in_task := prev

let inside_task () = !(Domain.DLS.get in_task)

(* Worker identity, for diagnostics: pool workers are 1..size, the
   submitting domain is 0. *)
let worker_id : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let execute pool job =
  let prev = entered () in
  Fun.protect ~finally:(fun () -> leave prev) @@ fun () ->
  let me = !(Domain.DLS.get worker_id) in
  let n = job.total in
  let rec grab () =
    let start = Atomic.fetch_and_add job.next job.chunk in
    if start < n then begin
      let stop = min n (start + job.chunk) in
      for i = start to stop - 1 do
        job.claimed.(i) <- me;
        job.run i
      done;
      let finished =
        Atomic.fetch_and_add job.completed (stop - start) + (stop - start)
      in
      if finished = n then begin
        Mutex.lock pool.lock;
        pool.current <- None;
        Condition.broadcast pool.work_done;
        Mutex.unlock pool.lock
      end;
      grab ()
    end
  in
  grab ()

let rec worker_loop pool last_gen =
  Mutex.lock pool.lock;
  let rec await () =
    if pool.shutdown then None
    else
      match pool.current with
      | Some (g, job) when g <> last_gen -> Some (g, job)
      | Some _ | None ->
          Condition.wait pool.work_ready pool.lock;
          await ()
  in
  match await () with
  | None -> Mutex.unlock pool.lock
  | Some (g, job) ->
      Mutex.unlock pool.lock;
      execute pool job;
      worker_loop pool g

let spawn_pool ~size =
  let pool =
    { size;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      generation = 0;
      shutdown = false;
      workers = [] }
  in
  pool.workers <-
    List.init size (fun k ->
        Domain.spawn (fun () ->
            Domain.DLS.get worker_id := k + 1;
            worker_loop pool 0));
  pool

let the_pool : pool option ref = ref None

let teardown () =
  match !the_pool with
  | None -> ()
  | Some pool ->
      Mutex.lock pool.lock;
      pool.shutdown <- true;
      Condition.broadcast pool.work_ready;
      Mutex.unlock pool.lock;
      List.iter Domain.join pool.workers;
      the_pool := None

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: job count must be >= 1";
  let n = min n max_jobs in
  if !jobs_ref <> Some n then begin
    teardown ();
    jobs_ref := Some n
  end

let configure ?jobs:cli () =
  match cli with
  | Some n when n < 1 ->
      Stdlib.Error (Printf.sprintf "-j: invalid job count %d (must be >= 1)" n)
  | Some n ->
      set_jobs n;
      Ok (jobs ())
  | None -> (
      match jobs_from_env () with
      | Stdlib.Error e -> Stdlib.Error e
      | Ok (Some n) ->
          set_jobs n;
          Ok (jobs ())
      | Ok None ->
          set_jobs (recommended ());
          Ok (jobs ()))

let pool_for ~jobs:j =
  let size = j - 1 in
  match !the_pool with
  | Some p when p.size = size -> p
  | Some _ ->
      teardown ();
      let p = spawn_pool ~size in
      the_pool := Some p;
      p
  | None ->
      let p = spawn_pool ~size in
      the_pool := Some p;
      p

(* ---- serial guards ------------------------------------------------ *)

let serial_guards : (unit -> bool) list ref = ref []

let add_serial_guard g = serial_guards := g :: !serial_guards

let must_serialize () =
  inside_task () || List.exists (fun g -> g ()) !serial_guards

(* ---- ordered parallel maps ---------------------------------------- *)

let submit pool job =
  Mutex.lock pool.lock;
  while pool.current <> None do
    Condition.wait pool.work_done pool.lock
  done;
  pool.generation <- pool.generation + 1;
  pool.current <- Some (pool.generation, job);
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  execute pool job;
  Mutex.lock pool.lock;
  while
    (match pool.current with Some (_, j) -> j == job | None -> false)
  do
    Condition.wait pool.work_done pool.lock
  done;
  Mutex.unlock pool.lock

(* Test seam: when set to [Some i], the next parallel map blanks result
   slot [i] before reduction, forcing the missing-result path that a
   real pool bug would take.  Consumed (reset to [None]) on use. *)
module For_testing = struct
  let drop_result : int option ref = ref None
end

let map ?(label = "par.map") f xs =
  let n = Array.length xs in
  let j = jobs () in
  if n = 0 then [||]
  else begin
    (* Trace hooks fire for top-level maps only, and identically on the
       sequential and pooled paths — the emitted positions (and hence a
       trace merged from them) cannot depend on the job count. *)
    let top = not (inside_task ()) in
    let hooks = if top then !trace_hooks else None in
    (match hooks with Some h -> h.on_map_start ~total:n | None -> ());
    Fun.protect
      ~finally:(fun () -> match hooks with Some h -> h.on_map_end () | None -> ())
    @@ fun () ->
      if j <= 1 || n <= 1 || must_serialize () then begin
        (* Sequential run of a (possibly top-level) map: mark the items
           as in-task, exactly like [execute] does, so nested maps
           behave — and fire hooks — the same at every job count. *)
        let prev = entered () in
        Fun.protect ~finally:(fun () -> leave prev) @@ fun () ->
        Array.mapi
          (fun i x ->
            (match hooks with Some h -> h.on_item i | None -> ());
            f x)
          xs
      end
      else begin
        let results = Array.make n None in
        let errors = Array.make n None in
        let run i =
          (match hooks with Some h -> h.on_item i | None -> ());
          match f xs.(i) with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e
        in
        let job =
          { run;
            total = n;
            chunk = max 1 (n / (j * 8));
            next = Atomic.make 0;
            completed = Atomic.make 0;
            claimed = Array.make n (-1) }
        in
        submit (pool_for ~jobs:j) job;
        (match !For_testing.drop_result with
         | Some i when i < n ->
             For_testing.drop_result := None;
             results.(i) <- None
         | _ -> ());
        (* deterministic error propagation: the lowest failing index wins,
           independent of which domain hit it first *)
        Array.iteri
          (fun _ o -> match o with Some e -> raise e | None -> ())
          errors;
        Array.mapi
          (fun i o ->
            match o with
            | Some v -> v
            | None ->
                raise (Error { batch = label; index = i; worker = job.claimed.(i) }))
          results
      end
  end

let filter_map ?label f xs =
  let opts = map ?label f xs in
  let kept = Array.to_list opts |> List.filter_map Fun.id in
  Array.of_list kept

let map_list ?label f xs = Array.to_list (map ?label f (Array.of_list xs))
