type t =
  | Int of int
  | Str of string
  | Addr of int
  | Bool of bool
  | Unit

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Addr x, Addr y -> x = y
  | Bool x, Bool y -> x = y
  | Unit, Unit -> true
  | (Int _ | Str _ | Addr _ | Bool _ | Unit), _ -> false

let type_name = function
  | Int _ -> "int"
  | Str _ -> "string"
  | Addr _ -> "address"
  | Bool _ -> "bool"
  | Unit -> "unit"

let pp ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Str s -> Format.fprintf ppf "%S" s
  | Addr a -> Format.fprintf ppf "0x%08x" a
  | Bool b -> Format.pp_print_bool ppf b
  | Unit -> Format.pp_print_string ppf "()"

let to_string v = Format.asprintf "%a" pp v

let wrong expected v =
  invalid_arg (Printf.sprintf "Value: expected %s, got %s %s" expected (type_name v) (to_string v))

let as_int = function Int n -> n | v -> wrong "int" v

let as_str = function Str s -> s | v -> wrong "string" v

let as_addr = function Addr a -> a | v -> wrong "address" v
