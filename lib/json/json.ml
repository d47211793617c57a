type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

type error =
  | Syntax of { pos : int; msg : string }
  | Invalid_utf8 of { pos : int }
  | Unpaired_surrogate of { pos : int }

let error_to_string = function
  | Syntax { pos; msg } -> Printf.sprintf "at %d: %s" pos msg
  | Invalid_utf8 { pos } -> Printf.sprintf "at %d: invalid UTF-8" pos
  | Unpaired_surrogate { pos } -> Printf.sprintf "at %d: unpaired surrogate" pos

exception Bad of error

let error pos msg = raise (Bad (Syntax { pos; msg }))

(* ---- parser ------------------------------------------------------- *)

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c.pos (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else error c.pos (Printf.sprintf "expected %s" word)

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - Char.code '0'
  | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
  | _ -> -1

(* The four hex digits after a [\u]; the cursor moves from the [u] to
   the last digit. *)
let hex4 c =
  let code = ref 0 in
  for _ = 1 to 4 do
    advance c;
    match peek c with
    | Some ch when hex_digit ch >= 0 -> code := (!code * 16) + hex_digit ch
    | _ -> error c.pos "bad \\u escape"
  done;
  !code

(* A [\u] escape, the cursor on the [u]: a high surrogate must be
   followed at once by an escaped low one. *)
let unicode_escape c =
  let unpaired = Bad (Unpaired_surrogate { pos = c.pos - 1 }) in
  let low_follows () =
    c.pos + 2 < String.length c.src && c.src.[c.pos + 1] = '\\' && c.src.[c.pos + 2] = 'u'
  in
  match hex4 c with
  | hi when hi >= 0xD800 && hi <= 0xDBFF && low_follows () -> (
      c.pos <- c.pos + 2;
      match hex4 c with
      | lo when lo >= 0xDC00 && lo <= 0xDFFF ->
          Uchar.of_int (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
      | _ -> raise unpaired)
  | code when code >= 0xD800 && code <= 0xDFFF -> raise unpaired
  | code -> Uchar.of_int code

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
         | Some '"' -> Buffer.add_char b '"'
         | Some '\\' -> Buffer.add_char b '\\'
         | Some '/' -> Buffer.add_char b '/'
         | Some 'b' -> Buffer.add_char b '\b'
         | Some 'f' -> Buffer.add_char b '\012'
         | Some 'n' -> Buffer.add_char b '\n'
         | Some 'r' -> Buffer.add_char b '\r'
         | Some 't' -> Buffer.add_char b '\t'
         | Some 'u' -> Buffer.add_utf_8_uchar b (unicode_escape c)
         | _ -> error c.pos "bad escape");
        advance c;
        go ()
    | Some ch when Char.code ch < 0x20 -> error c.pos "control char in string"
    | Some ch when Char.code ch < 0x80 ->
        Buffer.add_char b ch;
        advance c;
        go ()
    | Some _ ->
        let d = String.get_utf_8_uchar c.src c.pos in
        if not (Uchar.utf_decode_is_valid d) then
          raise (Bad (Invalid_utf8 { pos = c.pos }));
        let n = Uchar.utf_decode_length d in
        Buffer.add_substring b c.src c.pos n;
        c.pos <- c.pos + n;
        go ()
  in
  go ();
  Buffer.contents b

(* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
let parse_number c =
  let start = c.pos in
  let is_digit () = match peek c with Some '0' .. '9' -> true | _ -> false in
  let digits () =
    if not (is_digit ()) then error c.pos "expected digit";
    while is_digit () do advance c done
  in
  let skip ch = peek c = Some ch && (advance c; true) in
  ignore (skip '-');
  if not (skip '0') then digits ();
  let frac = skip '.' in
  if frac then digits ();
  let exp = skip 'e' || skip 'E' in
  if exp then begin
    ignore (skip '+' || skip '-');
    digits ()
  end;
  let s = String.sub c.src start (c.pos - start) in
  match if frac || exp then None else int_of_string_opt s with
  | Some n -> Int n
  | None -> Float (float_of_string s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c.pos "unexpected end of input"
  | Some '{' ->
      let field c =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        (key, parse_value c)
      in
      Obj (sequence c '}' field)
  | Some '[' -> List (sequence c ']' parse_value)
  | Some '"' -> Str (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> error c.pos (Printf.sprintf "unexpected %C" ch)

(* The comma-separated items of an object or array, the cursor on its
   opening bracket. *)
and sequence : 'a. cursor -> char -> (cursor -> 'a) -> 'a list =
  fun c closing item ->
  advance c;
  skip_ws c;
  let rec go acc =
    let x = item c in
    skip_ws c;
    match peek c with
    | Some ',' ->
        advance c;
        go (x :: acc)
    | Some ch when ch = closing ->
        advance c;
        List.rev (x :: acc)
    | _ -> error c.pos (Printf.sprintf "expected ',' or '%c'" closing)
  in
  if peek c = Some closing then begin
    advance c;
    []
  end
  else go []

let parse src =
  let c = { src; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos = String.length src then Ok v
      else Error (Syntax { pos = c.pos; msg = "trailing garbage" })
  | exception Bad e -> Error e

(* ---- printer ------------------------------------------------------ *)

type layout = Compact | Spaced | Indented

let add_string b s =
  Buffer.add_char b '"';
  let rec go i =
    if i < String.length s then
      match s.[i] with
      | '"' | '\\' as ch ->
          Buffer.add_char b '\\';
          Buffer.add_char b ch;
          go (i + 1)
      | '\n' -> Buffer.add_string b "\\n"; go (i + 1)
      | '\r' -> Buffer.add_string b "\\r"; go (i + 1)
      | '\t' -> Buffer.add_string b "\\t"; go (i + 1)
      | ch when Char.code ch < 0x20 ->
          Printf.bprintf b "\\u%04x" (Char.code ch);
          go (i + 1)
      | ch when Char.code ch < 0x80 -> Buffer.add_char b ch; go (i + 1)
      | _ ->
          let d = String.get_utf_8_uchar s i in
          let n = Uchar.utf_decode_length d in
          if Uchar.utf_decode_is_valid d then Buffer.add_substring b s i n
          else Buffer.add_utf_8_uchar b Uchar.rep;
          go (i + n)
  in
  go 0;
  Buffer.add_char b '"'

let to_buffer ?(layout = Spaced) b v =
  let sep, colon = if layout = Compact then (",", ":") else (", ", ": ") in
  let rec value depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | (Float f | Fixed (_, f)) when not (Float.is_finite f) -> Buffer.add_string b "null"
    | Float f when Float.is_integer f && Float.abs f < 1e15 -> Printf.bprintf b "%.1f" f
    | Float f -> Printf.bprintf b "%.6g" f
    | Fixed (d, f) -> Printf.bprintf b "%.*f" d f
    | Str s -> add_string b s
    | List xs -> container depth '[' ']' value xs
    | Obj fields ->
        let field depth (k, v) =
          add_string b k;
          Buffer.add_string b colon;
          value depth v
        in
        container depth '{' '}' field fields
  (* [Indented] puts each item of the outer two levels on a line of
     its own *)
  and container : 'a. int -> char -> char -> (int -> 'a -> unit) -> 'a list -> unit =
    fun depth opening closing item xs ->
    let lines = xs <> [] && layout = Indented && depth < 2 in
    let newline d = if lines then Buffer.add_string b ("\n" ^ String.make (2 * d) ' ') in
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b (if lines then "," else sep);
        newline (depth + 1);
        item (depth + 1) x)
      xs;
    newline depth;
    Buffer.add_char b closing
  in
  value 0 v

let to_string ?layout v =
  let b = Buffer.create 256 in
  to_buffer ?layout b v;
  Buffer.contents b

(* ---- accessors ---------------------------------------------------- *)

let mem key = function Obj fields -> List.assoc_opt key fields | _ -> None

let str = function Str s -> Some s | _ -> None

let int = function Int n -> Some n | _ -> None

let bool = function Bool b -> Some b | _ -> None
