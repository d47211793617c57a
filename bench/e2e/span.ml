(* Bench-owned wall-clock spans around the benchmark's calls into each
   layer: a name, start, end, parent and the domain that ran it (serve
   spans also carry the request id).  Spans stay in per-domain memory
   and are collected once the traced composition has finished; with
   [enabled] false every wrapper is a plain call, which is how the
   tracing overhead is measured. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root *)
  name : string;
  dom : int;
  t0 : float;
  t1 : float;
  req : string;  (* request id, "" outside serve *)
}

let enabled = ref false

let next_id = Atomic.make 0

type buf = { mutable spans : t list; mutable stack : int list }

let bufs : buf list ref = ref []
let bufs_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      Mutex.lock bufs_lock;
      bufs := b :: !bufs;
      Mutex.unlock bufs_lock;
      b)

let now = Unix.gettimeofday

let current () =
  match (Domain.DLS.get key).stack with p :: _ -> p | [] -> -1

let push_finished b ~id ~parent ~req name t0 t1 =
  b.spans <- { id; parent; name; dom = (Domain.self () :> int); t0; t1; req } :: b.spans

let with_ ?(req = "") name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match b.stack with p :: _ -> p | [] -> -1 in
    b.stack <- id :: b.stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        b.stack <- List.tl b.stack;
        push_finished b ~id ~parent ~req name t0 t1)
      f
  end

(* A span whose name is only known once the call returned (a store
   hit or a fresh computation); it must have no child spans. *)
let record ?(req = "") name t0 t1 =
  if !enabled then begin
    let b = Domain.DLS.get key in
    let id = Atomic.fetch_and_add next_id 1 in
    push_finished b ~id ~parent:(current ()) ~req name t0 t1
  end

(* Run [f] on a pool domain as a child of [parent], a span opened on
   the submitting domain. *)
let within parent f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let saved = b.stack in
    b.stack <- [ parent ];
    Fun.protect ~finally:(fun () -> b.stack <- saved) f
  end

(* Every finished span, oldest first; clears the buffers.  Call only
   when no pool map is running. *)
let drain () =
  Mutex.lock bufs_lock;
  let all = List.concat_map (fun b -> let s = b.spans in b.spans <- []; s) !bufs in
  Mutex.unlock bufs_lock;
  List.sort (fun a b -> compare a.t0 b.t0) all

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the part of its interval that
   its children cover (children on different domains may overlap, so
   the covered part is the union of their intervals). *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.map (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            if b <= reach then (acc, reach)
            else (acc +. (b -. Float.max a reach), b))
          (0., neg_infinity) ivs
      in
      (s, Float.max 0. (duration s -. covered)))
    spans

let to_json s =
  Json.Arr
    [ Json.Num (float_of_int s.id); Json.Num (float_of_int s.parent); Json.Str s.name;
      Json.Num (float_of_int s.dom); Json.Num s.t0; Json.Num s.t1; Json.Str s.req ]
