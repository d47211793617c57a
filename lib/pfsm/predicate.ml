type term =
  | Self
  | Env_val of string
  | Lit of Value.t
  | Length of term
  | Decode of int * term

type cmp = Le | Lt | Eq | Ne | Ge | Gt

type t =
  | True
  | False
  | Not of t
  | And of t * t
  | Or of t * t
  | Cmp of cmp * term * term
  | Str_eq of term * term
  | Contains of term * string
  | Contains_any of term * string list
  | Fits_int32 of term
  | Is_format_free of term
  | Env_flag of string

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let rec eval_term ~env ~self = function
  | Self -> self
  | Env_val k -> Env.get k env
  | Lit v -> v
  | Length t ->
      (match eval_term ~env ~self t with
       | Value.Str s -> Value.Int (String.length s)
       | v -> type_error "length of non-string %s" (Value.type_name v))
  | Decode (n, t) ->
      (match eval_term ~env ~self t with
       | Value.Str s -> Value.Str (Strcodec.percent_decode_n n s)
       | v -> type_error "decode of non-string %s" (Value.type_name v))

let numeric = function
  | Value.Int n -> n
  | Value.Addr a -> a
  | v -> type_error "comparison on non-numeric %s" (Value.type_name v)

let string_of = function
  | Value.Str s -> s
  | v -> type_error "string operation on %s" (Value.type_name v)

let compare_with = function
  | Le -> ( <= )
  | Lt -> ( < )
  | Eq -> ( = )
  | Ne -> ( <> )
  | Ge -> ( >= )
  | Gt -> ( > )

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0

let rec holds ~env ~self = function
  | True -> true
  | False -> false
  | Not p -> not (holds ~env ~self p)
  | And (p, q) -> holds ~env ~self p && holds ~env ~self q
  | Or (p, q) -> holds ~env ~self p || holds ~env ~self q
  | Cmp (op, a, b) ->
      let va = numeric (eval_term ~env ~self a) in
      let vb = numeric (eval_term ~env ~self b) in
      compare_with op va vb
  | Str_eq (a, b) ->
      String.equal
        (string_of (eval_term ~env ~self a))
        (string_of (eval_term ~env ~self b))
  | Contains (t, needle) -> contains ~needle (string_of (eval_term ~env ~self t))
  | Contains_any (t, needles) ->
      let s = string_of (eval_term ~env ~self t) in
      List.exists (fun needle -> contains ~needle s) needles
  | Fits_int32 t ->
      (match eval_term ~env ~self t with
       | Value.Int n -> Strcodec.fits_int32 n
       | Value.Str s ->
           (match Strcodec.parse_integer s with
            | Some n -> Strcodec.fits_int32 n
            | None -> false)
       | v -> type_error "fits_int32 of %s" (Value.type_name v))
  | Is_format_free t ->
      not (Strcodec.contains_format_directive (string_of (eval_term ~env ~self t)))
  | Env_flag k -> Env.flag k env

let holds_safely ~env ~self p =
  match holds ~env ~self p with
  | b -> Some b
  | exception (Type_error _ | Env.Not_found_key _ | Invalid_argument _) -> None

let no_check = function True -> true | _ -> false

let conj = function
  | [] -> True
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

let disj = function
  | [] -> False
  | p :: ps -> List.fold_left (fun acc q -> Or (acc, q)) p ps

let between t ~low ~high =
  And (Cmp (Ge, t, Lit (Value.Int low)), Cmp (Le, t, Lit (Value.Int high)))

(* ---- hashconsing --------------------------------------------------
   Interning rebuilds a predicate bottom-up through a table of
   canonical nodes, so structurally equal subtrees become physically
   equal.  Two payoffs: [equal] gets a physical fast path, and the
   in-memory sharing of an interned predicate is a function of its
   structure alone — which makes [Marshal]-based digests of models
   (the analysis-memo key) independent of how the model was built.
   The tables are shared across domains and mutex-protected; interning
   happens at model-construction time, never on the [holds] hot
   path. *)

let hc_lock = Mutex.create ()
let hc_terms : (term, term) Hashtbl.t = Hashtbl.create 256
let hc_preds : (t, t) Hashtbl.t = Hashtbl.create 256

(* Dense intern ids, assigned in canonization order.  An id is stable
   for the life of the process (canonical nodes are never evicted),
   which is what lets Predset pack predicate sets into bitsets: the id
   is the bit position.  Ids are construction-order-dependent and must
   never cross a process boundary — digests, not ids, key the
   persistent tiers. *)
let hc_pred_ids : (t, int) Hashtbl.t = Hashtbl.create 256
let hc_pred_by_id : (int, t) Hashtbl.t = Hashtbl.create 256
let hc_next_id = ref 0

let m_distinct = Obs.Metrics.counter "pfsm.hashcons.distinct"
let m_hc_hits = Obs.Metrics.counter "pfsm.hashcons.hits"

let canon table key =
  match Hashtbl.find_opt table key with
  | Some v ->
      Obs.Metrics.incr m_hc_hits;
      v
  | None ->
      Hashtbl.add table key key;
      Obs.Metrics.incr m_distinct;
      key

let canon_pred key =
  match Hashtbl.find_opt hc_preds key with
  | Some v ->
      Obs.Metrics.incr m_hc_hits;
      v
  | None ->
      Hashtbl.add hc_preds key key;
      Hashtbl.add hc_pred_ids key !hc_next_id;
      Hashtbl.add hc_pred_by_id !hc_next_id key;
      incr hc_next_id;
      Obs.Metrics.incr m_distinct;
      key

let rec intern_term_unlocked t =
  let rebuilt =
    match t with
    | Self | Env_val _ | Lit _ -> t
    | Length u ->
        let u' = intern_term_unlocked u in
        if u' == u then t else Length u'
    | Decode (n, u) ->
        let u' = intern_term_unlocked u in
        if u' == u then t else Decode (n, u')
  in
  canon hc_terms rebuilt

let rec intern_unlocked p =
  let node1 build u =
    let u' = intern_unlocked u in
    if u' == u then p else build u'
  in
  let term1 build a =
    let a' = intern_term_unlocked a in
    if a' == a then p else build a'
  in
  let term2 build a b =
    let a' = intern_term_unlocked a and b' = intern_term_unlocked b in
    if a' == a && b' == b then p else build a' b'
  in
  let rebuilt =
    match p with
    | True | False | Env_flag _ -> p
    | Not u -> node1 (fun u -> Not u) u
    | And (u, v) ->
        let u' = intern_unlocked u and v' = intern_unlocked v in
        if u' == u && v' == v then p else And (u', v')
    | Or (u, v) ->
        let u' = intern_unlocked u and v' = intern_unlocked v in
        if u' == u && v' == v then p else Or (u', v')
    | Cmp (op, a, b) -> term2 (fun a b -> Cmp (op, a, b)) a b
    | Str_eq (a, b) -> term2 (fun a b -> Str_eq (a, b)) a b
    | Contains (a, needle) -> term1 (fun a -> Contains (a, needle)) a
    | Contains_any (a, needles) ->
        term1 (fun a -> Contains_any (a, needles)) a
    | Fits_int32 a -> term1 (fun a -> Fits_int32 a) a
    | Is_format_free a -> term1 (fun a -> Is_format_free a) a
  in
  canon_pred rebuilt

let intern p =
  Mutex.lock hc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock hc_lock)
    (fun () -> intern_unlocked p)

let id p =
  Mutex.lock hc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock hc_lock)
    (fun () -> Hashtbl.find hc_pred_ids (intern_unlocked p))

let of_id i =
  Mutex.lock hc_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock hc_lock)
    (fun () -> Hashtbl.find_opt hc_pred_by_id i)

let max_id () =
  Mutex.lock hc_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock hc_lock) (fun () -> !hc_next_id)

let equal p q = p == q || p = q

let rec pp_term ppf = function
  | Self -> Format.pp_print_string ppf "self"
  | Env_val k -> Format.fprintf ppf "env[%s]" k
  | Lit v -> Value.pp ppf v
  | Length t -> Format.fprintf ppf "length(%a)" pp_term t
  | Decode (n, t) -> Format.fprintf ppf "decode^%d(%a)" n pp_term t

let cmp_symbol = function
  | Le -> "<=" | Lt -> "<" | Eq -> "==" | Ne -> "!=" | Ge -> ">=" | Gt -> ">"

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Not p -> Format.fprintf ppf "!(%a)" pp p
  | And (p, q) -> Format.fprintf ppf "(%a && %a)" pp p pp q
  | Or (p, q) -> Format.fprintf ppf "(%a || %a)" pp p pp q
  | Cmp (op, a, b) -> Format.fprintf ppf "%a %s %a" pp_term a (cmp_symbol op) pp_term b
  | Str_eq (a, b) -> Format.fprintf ppf "%a == %a" pp_term a pp_term b
  | Contains (t, needle) -> Format.fprintf ppf "contains(%a, %S)" pp_term t needle
  | Contains_any (t, needles) ->
      Format.fprintf ppf "contains_any(%a, [%s])" pp_term t
        (String.concat "; " (List.map (Printf.sprintf "%S") needles))
  | Fits_int32 t -> Format.fprintf ppf "fits_int32(%a)" pp_term t
  | Is_format_free t -> Format.fprintf ppf "format_free(%a)" pp_term t
  | Env_flag k -> Format.fprintf ppf "env[%s]" k

let to_string p = Format.asprintf "%a" pp p
