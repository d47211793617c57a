type error = { position : int; message : string }

(* ---- lexer -------------------------------------------------------- *)

type token =
  | IDENT of string
  | INT of int
  | HEX of int
  | STRING of string
  | LPAREN | RPAREN | LBRACKET | RBRACKET
  | COMMA | SEMI | CARET | BANG
  | ANDAND | OROR
  | LE | LT | EQEQ | NE | GE | GT
  | EOF

exception Lex_error of error

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let emit position tok = tokens := (position, tok) :: !tokens in
  let fail position message = raise (Lex_error { position; message }) in
  let rec go i =
    if i >= n then emit i EOF
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '(' -> emit i LPAREN; go (i + 1)
      | ')' -> emit i RPAREN; go (i + 1)
      | '[' -> emit i LBRACKET; go (i + 1)
      | ']' -> emit i RBRACKET; go (i + 1)
      | ',' -> emit i COMMA; go (i + 1)
      | ';' -> emit i SEMI; go (i + 1)
      | '^' -> emit i CARET; go (i + 1)
      | '&' when i + 1 < n && input.[i + 1] = '&' -> emit i ANDAND; go (i + 2)
      | '|' when i + 1 < n && input.[i + 1] = '|' -> emit i OROR; go (i + 2)
      | '<' when i + 1 < n && input.[i + 1] = '=' -> emit i LE; go (i + 2)
      | '<' -> emit i LT; go (i + 1)
      | '>' when i + 1 < n && input.[i + 1] = '=' -> emit i GE; go (i + 2)
      | '>' -> emit i GT; go (i + 1)
      | '=' when i + 1 < n && input.[i + 1] = '=' -> emit i EQEQ; go (i + 2)
      | '!' when i + 1 < n && input.[i + 1] = '=' -> emit i NE; go (i + 2)
      | '!' -> emit i BANG; go (i + 1)
      | '"' -> (
          match Strcodec.string_literal input i with
          | Ok (next, s) ->
              emit i (STRING s);
              go next
          | Error message -> fail i message)
      | '0' when i + 1 < n && input.[i + 1] = 'x' ->
          (* up to 63 bits, the most [Value.pp] prints for an address;
             the top bit lands in the sign *)
          let rec hex j acc =
            let push d =
              if acc lsr 59 <> 0 then fail i "hex literal wider than 63 bits"
              else hex (j + 1) ((acc lsl 4) lor d)
            in
            if j < n then
              match input.[j] with
              | '0' .. '9' -> push (Char.code input.[j] - 48)
              | 'a' .. 'f' -> push (Char.code input.[j] - 87)
              | 'A' .. 'F' -> push (Char.code input.[j] - 55)
              | _ -> (j, acc)
            else (j, acc)
          in
          let next, v = hex (i + 2) 0 in
          if next = i + 2 then fail i "expected hex digits";
          emit i (HEX v);
          go next
      | '0' .. '9' | '-' ->
          let negative = input.[i] = '-' in
          let start = if negative then i + 1 else i in
          if start >= n || input.[start] < '0' || input.[start] > '9' then
            fail i "expected digits"
          else begin
            match Strcodec.negated_decimal input start with
            | Some (next, v) when negative || v <> min_int ->
                emit i (INT (if negative then v else -v));
                go next
            | _ -> fail i "integer literal out of range"
          end
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let rec ident j =
            if j < n then
              match input.[j] with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> ident (j + 1)
              | _ -> j
            else j
          in
          let next = ident i in
          emit i (IDENT (String.sub input i (next - i)));
          go next
      | c -> fail i (Printf.sprintf "unexpected character %c" c)
  in
  go 0;
  List.rev !tokens

(* ---- parser ------------------------------------------------------- *)

exception Parse_error of error

type stream = { mutable toks : (int * token) list }

let peek s = match s.toks with [] -> (0, EOF) | t :: _ -> t

let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let fail_at s message =
  let position, _ = peek s in
  raise (Parse_error { position; message })

let expect s tok message =
  let _, t = peek s in
  if t = tok then advance s else fail_at s message

let ident_key s =
  match peek s with
  | _, IDENT k -> advance s; k
  | _ -> fail_at s "expected an identifier"

(* term ::= self | env[k] | int | hex | string | length(t) | decode^n(t) *)
let rec parse_term s =
  match peek s with
  | _, IDENT "self" -> advance s; Predicate.Self
  | _, IDENT "env" ->
      advance s;
      expect s LBRACKET "expected [ after env";
      let k = ident_key s in
      expect s RBRACKET "expected ] after env key";
      Predicate.Env_val k
  | _, IDENT "length" ->
      advance s;
      expect s LPAREN "expected ( after length";
      let t = parse_term s in
      expect s RPAREN "expected ) after length";
      Predicate.Length t
  | _, IDENT "decode" ->
      advance s;
      expect s CARET "expected ^ after decode";
      let count =
        match peek s with
        | _, INT v when v >= 0 -> advance s; v
        | _ -> fail_at s "expected a decode count"
      in
      expect s LPAREN "expected ( after decode^n";
      let t = parse_term s in
      expect s RPAREN "expected ) after decode";
      Predicate.Decode (count, t)
  | _, IDENT "true" -> advance s; Predicate.Lit (Value.Bool true)
  | _, IDENT "false" -> advance s; Predicate.Lit (Value.Bool false)
  | _, INT v -> advance s; Predicate.Lit (Value.Int v)
  | _, HEX v -> advance s; Predicate.Lit (Value.Addr v)
  | _, STRING str -> advance s; Predicate.Lit (Value.Str str)
  | _ -> fail_at s "expected a term"

let is_stringy = function
  | Predicate.Lit (Value.Str _) | Predicate.Decode _ -> true
  | Predicate.Self | Predicate.Env_val _ | Predicate.Lit _ | Predicate.Length _ -> false

let string_list s =
  expect s LBRACKET "expected [";
  let rec items acc =
    match peek s with
    | _, STRING str ->
        advance s;
        (match peek s with
         | _, SEMI -> advance s; items (str :: acc)
         | _ -> List.rev (str :: acc))
    | _ -> List.rev acc
  in
  let l = items [] in
  expect s RBRACKET "expected ]";
  l

(* atom ::= true | false | !atom | (pred) | contains(...) | ... | cmp *)
let rec parse_atom s =
  match peek s with
  | _, IDENT "true" -> advance s; Predicate.True
  | _, IDENT "false" -> advance s; Predicate.False
  | _, BANG ->
      advance s;
      Predicate.Not (parse_atom s)
  | _, LPAREN ->
      advance s;
      let p = parse_or s in
      expect s RPAREN "expected )";
      p
  | _, IDENT "contains" ->
      advance s;
      expect s LPAREN "expected ( after contains";
      let t = parse_term s in
      expect s COMMA "expected , in contains";
      let needle =
        match peek s with
        | _, STRING str -> advance s; str
        | _ -> fail_at s "expected a string needle"
      in
      expect s RPAREN "expected ) after contains";
      Predicate.Contains (t, needle)
  | _, IDENT "contains_any" ->
      advance s;
      expect s LPAREN "expected (";
      let t = parse_term s in
      expect s COMMA "expected ,";
      let needles = string_list s in
      expect s RPAREN "expected )";
      Predicate.Contains_any (t, needles)
  | _, IDENT "fits_int32" ->
      advance s;
      expect s LPAREN "expected (";
      let t = parse_term s in
      expect s RPAREN "expected )";
      Predicate.Fits_int32 t
  | _, IDENT "format_free" ->
      advance s;
      expect s LPAREN "expected (";
      let t = parse_term s in
      expect s RPAREN "expected )";
      Predicate.Is_format_free t
  | _ -> (
      (* a term: either a comparison follows, or it was env[flag] *)
      let lhs = parse_term s in
      match peek s with
      | _, LE -> advance s; comparison s Predicate.Le lhs
      | _, LT -> advance s; comparison s Predicate.Lt lhs
      | _, GE -> advance s; comparison s Predicate.Ge lhs
      | _, GT -> advance s; comparison s Predicate.Gt lhs
      | _, NE -> advance s; comparison s Predicate.Ne lhs
      | _, EQEQ ->
          advance s;
          let rhs = parse_term s in
          if is_stringy lhs || is_stringy rhs then Predicate.Str_eq (lhs, rhs)
          else Predicate.Cmp (Predicate.Eq, lhs, rhs)
      | _ -> (
          match lhs with
          | Predicate.Env_val k -> Predicate.Env_flag k
          | _ -> fail_at s "expected a comparison operator"))

and comparison s op lhs =
  let rhs = parse_term s in
  Predicate.Cmp (op, lhs, rhs)

and parse_and s =
  let lhs = parse_atom s in
  match peek s with
  | _, ANDAND ->
      advance s;
      Predicate.And (lhs, parse_and s)
  | _ -> lhs

and parse_or s =
  let lhs = parse_and s in
  match peek s with
  | _, OROR ->
      advance s;
      Predicate.Or (lhs, parse_or s)
  | _ -> lhs

let run_parser f input =
  match lex input with
  | exception Lex_error e -> Error e
  | toks -> (
      let s = { toks } in
      match f s with
      | result ->
          (match peek s with
           | _, EOF -> Ok result
           | position, _ -> Error { position; message = "trailing input" })
      | exception Parse_error e -> Error e)

let predicate input = run_parser parse_or input

let term input = run_parser parse_term input

let predicate_exn input =
  match predicate input with
  | Ok p -> p
  | Error { position; message } ->
      invalid_arg (Printf.sprintf "Parse.predicate: at %d: %s" position message)

let roundtrips p =
  let rendered = Predicate.to_string p in
  match predicate rendered with
  | Ok q -> String.equal (Predicate.to_string q) rendered
  | Error _ -> false
