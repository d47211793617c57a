type obj =
  | Path of string
  | Path_attr of string
  | Socket_stream
  | Uid of string
  | Mem of string

type action = Reads | Writes | Creates | Unlinks | Chmods

type t = { action : action; obj : obj }

let reads obj = { action = Reads; obj }

let writes obj = { action = Writes; obj }

let creates obj = { action = Creates; obj }

let unlinks obj = { action = Unlinks; obj }

let chmods obj = { action = Chmods; obj }

let write_like = function
  | Reads -> false
  | Writes | Creates | Unlinks | Chmods -> true

(* Content and attributes of one path are conflated into a single key:
   unlinking or relinking a path changes both what a stat returns and
   what an open reaches, so keeping them apart would under-report
   conflicts and make the independence relation unsound. *)
let key e =
  match e.obj with
  | Path p | Path_attr p -> "path:" ^ p
  | Socket_stream -> "socket:"
  | Uid u -> "uid:" ^ u
  | Mem m -> "mem:" ^ m

let same_object a b = String.equal (key a) (key b)

let conflicts a b =
  same_object a b && (write_like a.action || write_like b.action)

let independent fa fb =
  not (List.exists (fun a -> List.exists (fun b -> conflicts a b) fb) fa)

(* Containment of a dynamic access in a static footprint.  The
   invariant partial-order reduction needs is exactly: every dynamic
   access touches a key the footprint mentions, and every dynamic
   mutation touches a key the footprint mentions with a write-like
   action.  A read access is therefore covered by any footprint entry
   on its key; a write-like access needs a write-like entry. *)
let covers f e =
  same_object f e && (write_like f.action || not (write_like e.action))

let covered_by e footprint = List.exists (fun f -> covers f e) footprint

let action_to_string = function
  | Reads -> "reads"
  | Writes -> "writes"
  | Creates -> "creates"
  | Unlinks -> "unlinks"
  | Chmods -> "chmods"

let obj_to_string = function
  | Path p -> p
  | Path_attr p -> "attr(" ^ p ^ ")"
  | Socket_stream -> "socket"
  | Uid u -> "uid:" ^ u
  | Mem m -> "mem:" ^ m

let to_string e =
  Printf.sprintf "%s %s" (action_to_string e.action) (obj_to_string e.obj)

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* ---- the dynamic-access observer ---------------------------------- *)

(* One ambient observer, installed by the footprint-soundness harness
   for the extent of a single step.  Not domain-safe: the harness runs
   on one domain; production code never installs an observer, and an
   uninstalled observer makes [record] a read of an immutable [None]. *)
let observer : (t -> unit) option ref = ref None

let record e =
  match !observer with
  | None -> ()
  | Some f -> f e

let with_observer f k =
  let saved = !observer in
  observer := Some f;
  Fun.protect ~finally:(fun () -> observer := saved) k
