type direction = Low | High

type kind =
  | Array_store_oob of { array : string; direction : direction }
  | Atoi_wrap_index of { array : string }
  | Strcpy_unbounded of { buffer : string }
  | Strcpy_off_by_one of { buffer : string }
  | Strcpy_overflow of { buffer : string }
  | Strncpy_overflow of { buffer : string }
  | Recv_overflow of { buffer : string }

type witness = {
  args : Minic.Interp.value list;
  socket : string;
  arrays : (string * int) list;
  outcome : Minic.Interp.outcome;
}

type status = Confirmed of witness | Unconfirmed

type t = {
  func : string;
  kind : kind;
  path : Cfg.path;
  site : string;
  detail : string;
  status : status;
  pfsm : string option;
      (* what the Pfsm.Verify corroboration said, rendered *)
}

let target = function
  | Array_store_oob { array; _ } | Atoi_wrap_index { array } -> array
  | Strcpy_unbounded { buffer } | Strcpy_off_by_one { buffer }
  | Strcpy_overflow { buffer } | Strncpy_overflow { buffer }
  | Recv_overflow { buffer } -> buffer

let kind_name = function
  | Array_store_oob { direction = Low; _ } -> "array-store-oob-low"
  | Array_store_oob { direction = High; _ } -> "array-store-oob-high"
  | Atoi_wrap_index _ -> "atoi-wrap-index"
  | Strcpy_unbounded _ -> "strcpy-unbounded"
  | Strcpy_off_by_one _ -> "strcpy-off-by-one"
  | Strcpy_overflow _ -> "strcpy-overflow"
  | Strncpy_overflow _ -> "strncpy-overflow"
  | Recv_overflow _ -> "recv-overflow"

let is_confirmed t = match t.status with Confirmed _ -> true | Unconfirmed -> false

(* A replayed outcome confirms a finding when it is a memory violation
   on the finding's target (a machine fault also counts for copies:
   a large enough overflow runs off the mapped segment before the
   capacity book-keeping fires). *)
let outcome_matches kind (outcome : Minic.Interp.outcome) =
  match kind, outcome with
  | (Array_store_oob { array; _ } | Atoi_wrap_index { array }),
    Minic.Interp.Memory_violation (Minic.Interp.Array_oob { array = a; _ }) ->
      a = array
  | (Strcpy_unbounded { buffer } | Strcpy_off_by_one { buffer }
    | Strcpy_overflow { buffer } | Strncpy_overflow { buffer }
    | Recv_overflow { buffer }),
    Minic.Interp.Memory_violation (Minic.Interp.Buffer_overflow { buffer = b; _ }) ->
      b = buffer
  | (Strcpy_unbounded _ | Strcpy_off_by_one _ | Strcpy_overflow _
    | Strncpy_overflow _ | Recv_overflow _),
    Minic.Interp.Memory_violation (Minic.Interp.Machine_fault _) ->
      true
  | _ -> false

(* ---- rendering ---------------------------------------------------- *)

let pp_status ppf = function
  | Unconfirmed -> Format.pp_print_string ppf "UNCONFIRMED"
  | Confirmed w ->
      Format.fprintf ppf "CONFIRMED (%a)" Minic.Interp.pp_outcome w.outcome

let pp ppf t =
  Format.fprintf ppf "@[<v2>%s: %s on %s [%a]@,at %s@,%s@,%a" t.func
    (kind_name t.kind) (target t.kind) Cfg.pp_path t.path t.site t.detail
    pp_status t.status;
  (match t.status with
   | Confirmed w ->
       let arg = function
         | Minic.Interp.Vint n -> string_of_int n
         | Minic.Interp.Vstr s ->
             if String.length s <= 24 then Printf.sprintf "%S" s
             else Printf.sprintf "<%d-byte string>" (String.length s)
       in
       Format.fprintf ppf "@,witness args: (%s)%s"
         (String.concat ", " (List.map arg w.args))
         (if w.socket = "" then ""
          else Printf.sprintf ", socket: %d bytes" (String.length w.socket))
   | Unconfirmed -> ());
  (match t.pfsm with
   | Some note -> Format.fprintf ppf "@,pfsm: %s" note
   | None -> ());
  Format.fprintf ppf "@]"

(* ---- JSON ---------------------------------------------------------- *)

let witness_to_json w =
  let arg =
    Json.(
      function
      | Minic.Interp.Vint n -> Obj [ ("int", Int n) ]
      | Minic.Interp.Vstr s when String.length s <= 64 -> Obj [ ("str", Str s) ]
      | Minic.Interp.Vstr s ->
          Obj
            [ ("str_len", Int (String.length s)); ("str_head", Str (String.sub s 0 16)) ])
  in
  let array (n, c) = Json.(Obj [ ("array", Str n); ("count", Int c) ]) in
  Json.(
    Obj
      [ ("args", List (List.map arg w.args));
        ("socket_len", Int (String.length w.socket));
        ("arrays", List (List.map array w.arrays));
        ("outcome", Str (Format.asprintf "%a" Minic.Interp.pp_outcome w.outcome)) ])

let to_json t =
  let status =
    match t.status with
    | Confirmed w -> [ ("status", Json.Str "confirmed"); ("witness", witness_to_json w) ]
    | Unconfirmed -> [ ("status", Json.Str "unconfirmed") ]
  in
  let pfsm = match t.pfsm with Some note -> [ ("pfsm", Json.Str note) ] | None -> [] in
  Json.(
    Obj
      ([ ("func", Str t.func); ("kind", Str (kind_name t.kind));
         ("target", Str (target t.kind));
         ("path", List (List.map (fun n -> Int n) t.path));
         ("site", Str t.site); ("detail", Str t.detail) ]
       @ status @ pfsm))
