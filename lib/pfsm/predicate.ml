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
