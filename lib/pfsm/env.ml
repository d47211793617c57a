module M = Map.Make (String)

type t = Value.t M.t

exception Not_found_key of string

let empty = M.empty

let add = M.add

let add_int k n t = M.add k (Value.Int n) t

let add_str k s t = M.add k (Value.Str s) t

let add_bool k b t = M.add k (Value.Bool b) t

let add_addr k a t = M.add k (Value.Addr a) t

let find = M.find_opt

let get k t =
  match M.find_opt k t with
  | Some v -> v
  | None -> raise (Not_found_key k)

let get_int k t = Value.as_int (get k t)

let get_str k t = Value.as_str (get k t)

let get_addr k t = Value.as_addr (get k t)

let flag k t =
  match M.find_opt k t with
  | Some (Value.Bool b) -> b
  | Some _ | None -> false

let mem = M.mem

let bindings = M.bindings

let of_list l = List.fold_left (fun acc (k, v) -> M.add k v acc) M.empty l

let pp ppf t =
  let binding ppf (k, v) = Format.fprintf ppf "%s = %a" k Value.pp v in
  Format.fprintf ppf "{@[<hov>%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") binding)
    (bindings t)
