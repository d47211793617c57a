type error = { line : int; message : string }

(* ---- lexer -------------------------------------------------------- *)

type token =
  | KW of string           (* int, char, const, if, else, while, return,
                              strcpy, strncpy, atoi, strlen *)
  | IDENT of string
  | INT of int
  | STRING of string
  | REJECT_COMMENT of string
  | SYM of string          (* punctuation and operators *)
  | EOF

exception Error_at of error

let fail line message = raise (Error_at { line; message })

let keywords =
  [ "int"; "char"; "const"; "if"; "else"; "while"; "do"; "return"; "strcpy";
    "strncpy"; "atoi"; "strlen"; "recv" ]

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let line = ref 1 in
  let emit tok = tokens := (!line, tok) :: !tokens in
  let rec go i =
    if i >= n then emit EOF
    else
      match input.[i] with
      | '\n' -> incr line; go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && input.[i + 1] = '*' ->
          (* comment: capture "reject: ..." bodies, skip the rest *)
          let rec close j =
            if j + 1 >= n then fail !line "unterminated comment"
            else if input.[j] = '*' && input.[j + 1] = '/' then j + 2
            else begin
              if input.[j] = '\n' then incr line;
              close (j + 1)
            end
          in
          let stop = close (i + 2) in
          let body = String.trim (String.sub input (i + 2) (stop - i - 4)) in
          let prefix = "reject:" in
          if String.length body >= String.length prefix
             && String.sub body 0 (String.length prefix) = prefix
          then
            emit
              (REJECT_COMMENT
                 (String.trim
                    (String.sub body (String.length prefix)
                       (String.length body - String.length prefix))));
          go stop
      | '/' when i + 1 < n && input.[i + 1] = '/' ->
          let rec eol j = if j < n && input.[j] <> '\n' then eol (j + 1) else j in
          go (eol i)
      | '"' -> (
          match Pfsm.Strcodec.string_literal input i with
          | Ok (stop, s) ->
              emit (STRING s);
              for j = i to stop - 1 do
                if input.[j] = '\n' then incr line
              done;
              go stop
          | Error message -> fail !line message)
      | '0' .. '9' -> (
          (* 2^62 lexes as [min_int]: only a unary minus may take it
             ([parse_unary]) *)
          match Pfsm.Strcodec.negated_decimal input i with
          | Some (stop, v) ->
              emit (INT (-v));
              go stop
          | None -> fail !line "integer literal out of range")
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let rec ident j =
            if j < n then
              match input.[j] with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ident (j + 1)
              | _ -> j
            else j
          in
          let stop = ident i in
          let word = String.sub input i (stop - i) in
          emit (if List.mem word keywords then KW word else IDENT word);
          go stop
      | _ ->
          let two = if i + 1 < n then String.sub input i 2 else "" in
          if List.mem two [ "&&"; "||"; "<="; ">="; "=="; "!=" ] then begin
            emit (SYM two);
            go (i + 2)
          end
          else begin
            let one = String.make 1 input.[i] in
            if String.contains "(){}[];,=<>!+-*" input.[i] then begin
              emit (SYM one);
              go (i + 1)
            end
            else fail !line (Printf.sprintf "unexpected character %c" input.[i])
          end
  in
  go 0;
  List.rev !tokens

(* ---- parser ------------------------------------------------------- *)

type stream = { mutable toks : (int * token) list }

let peek s = match s.toks with [] -> (0, EOF) | t :: _ -> t

let advance s = match s.toks with [] -> () | _ :: rest -> s.toks <- rest

let fail_tok s message =
  let line, _ = peek s in
  fail line message

let expect_sym s sym =
  match peek s with
  | _, SYM x when x = sym -> advance s
  | _ -> fail_tok s (Printf.sprintf "expected '%s'" sym)

let expect_kw s kw =
  match peek s with
  | _, KW x when x = kw -> advance s
  | _ -> fail_tok s (Printf.sprintf "expected '%s'" kw)

let ident s =
  match peek s with
  | _, IDENT x -> advance s; x
  | _ -> fail_tok s "expected an identifier"

(* expressions, precedence climbing *)
let rec parse_expr s = parse_or s

and parse_or s =
  let lhs = parse_and s in
  match peek s with
  | _, SYM "||" ->
      advance s;
      Ast.Bin (Ast.Or, lhs, parse_or s)
  | _ -> lhs

and parse_and s =
  let lhs = parse_cmp s in
  match peek s with
  | _, SYM "&&" ->
      advance s;
      Ast.Bin (Ast.And, lhs, parse_and s)
  | _ -> lhs

and parse_cmp s =
  let lhs = parse_add s in
  let op sym = function
    | "<" -> Ast.Lt | "<=" -> Ast.Le | ">" -> Ast.Gt | ">=" -> Ast.Ge
    | "==" -> Ast.Eq | "!=" -> Ast.Ne
    | _ -> fail_tok s ("bad comparison " ^ sym)
  in
  match peek s with
  | _, SYM (("<" | "<=" | ">" | ">=" | "==" | "!=") as sym) ->
      advance s;
      Ast.Bin (op sym sym, lhs, parse_add s)
  | _ -> lhs

and parse_add s =
  let rec loop lhs =
    match peek s with
    | _, SYM "+" ->
        advance s;
        loop (Ast.Bin (Ast.Add, lhs, parse_mul s))
    | _, SYM "-" ->
        advance s;
        loop (Ast.Bin (Ast.Sub, lhs, parse_mul s))
    | _ -> lhs
  in
  loop (parse_mul s)

and parse_mul s =
  let rec loop lhs =
    match peek s with
    | _, SYM "*" ->
        advance s;
        loop (Ast.Bin (Ast.Mul, lhs, parse_unary s))
    | _ -> lhs
  in
  loop (parse_unary s)

and parse_unary s =
  match peek s with
  | _, SYM "!" ->
      advance s;
      Ast.Not (parse_unary s)
  | _, SYM "-" ->
      advance s;
      (match peek s with
       | _, INT v ->
           advance s;
           Ast.Int_lit (-v)
       | _ -> Ast.Bin (Ast.Sub, Ast.Int_lit 0, parse_unary s))
  | _ -> parse_primary s

and parse_primary s =
  match peek s with
  | _, INT v when v < 0 -> fail_tok s "integer literal out of range"
  | _, INT v -> advance s; Ast.Int_lit v
  | _, STRING str -> advance s; Ast.Str_lit str
  | _, KW "atoi" ->
      advance s;
      expect_sym s "(";
      let e = parse_expr s in
      expect_sym s ")";
      Ast.Atoi e
  | _, KW "strlen" ->
      advance s;
      expect_sym s "(";
      let e = parse_expr s in
      expect_sym s ")";
      Ast.Strlen e
  | _, IDENT v -> advance s; Ast.Var v
  | _, SYM "(" ->
      advance s;
      let e = parse_expr s in
      expect_sym s ")";
      e
  | _ -> fail_tok s "expected an expression"

(* statements *)
let rec parse_block s =
  expect_sym s "{";
  let rec stmts acc =
    match peek s with
    | _, SYM "}" ->
        advance s;
        List.rev acc
    | _ -> stmts (parse_stmt s :: acc)
  in
  stmts []

and parse_stmt s =
  match peek s with
  | _, KW "int" ->
      advance s;
      let v = ident s in
      expect_sym s "=";
      let e = parse_expr s in
      expect_sym s ";";
      Ast.Decl_int (v, e)
  | _, KW "char" ->
      advance s;
      let v = ident s in
      expect_sym s "[";
      let size = parse_expr s in
      expect_sym s "]";
      expect_sym s ";";
      (match size with
       | Ast.Int_lit n -> Ast.Decl_buf (v, n)
       | e -> Ast.Decl_buf_dyn (v, e))
  | _, KW "strcpy" ->
      advance s;
      expect_sym s "(";
      let buf = ident s in
      expect_sym s ",";
      let e = parse_expr s in
      expect_sym s ")";
      expect_sym s ";";
      Ast.Strcpy (buf, e)
  | _, KW "strncpy" ->
      advance s;
      expect_sym s "(";
      let buf = ident s in
      expect_sym s ",";
      let e = parse_expr s in
      expect_sym s ",";
      let bound = parse_expr s in
      expect_sym s ")";
      expect_sym s ";";
      Ast.Strncpy (buf, e, bound)
  | _, KW "if" ->
      advance s;
      let cond = parse_expr s in
      let then_ = parse_block s in
      let else_ =
        match peek s with
        | _, KW "else" ->
            advance s;
            parse_block s
        | _ -> []
      in
      Ast.If (cond, then_, else_)
  | _, KW "while" ->
      advance s;
      let cond = parse_expr s in
      let body = parse_block s in
      Ast.While (cond, body)
  | _, KW "do" ->
      advance s;
      let body = parse_block s in
      expect_kw s "while";
      let cond = parse_expr s in
      expect_sym s ";";
      Ast.Do_while (body, cond)
  | _, KW "return" ->
      advance s;
      let e = parse_expr s in
      expect_sym s ";";
      (match e with
       | Ast.Int_lit (-1) -> (
           match peek s with
           | _, REJECT_COMMENT reason ->
               advance s;
               Ast.Reject reason
           | _ -> Ast.Reject "rejected")
       | _ -> Ast.Return e)
  | _, IDENT v -> (
      advance s;
      match peek s with
      | _, SYM "=" -> (
          advance s;
          match peek s with
          | _, KW "recv" ->
              advance s;
              expect_sym s "(";
              let sock = ident s in
              if sock <> "sock" then fail_tok s "recv reads from 'sock'";
              expect_sym s ",";
              let buf = ident s in
              expect_sym s "+";
              let off = parse_expr s in
              expect_sym s ",";
              let maxlen = parse_expr s in
              expect_sym s ")";
              expect_sym s ";";
              Ast.Recv_into (v, buf, off, maxlen)
          | _ ->
              let e = parse_expr s in
              expect_sym s ";";
              Ast.Assign (v, e))
      | _, SYM "[" ->
          advance s;
          let idx = parse_expr s in
          expect_sym s "]";
          expect_sym s "=";
          let value = parse_expr s in
          expect_sym s ";";
          Ast.Array_store (v, idx, value)
      | _ -> fail_tok s "expected '=' or '[' after identifier")
  | _ -> fail_tok s "expected a statement"

and parse_param s =
  match peek s with
  | _, KW "int" ->
      advance s;
      Ast.Int_param (ident s)
  | _, KW ("const" | "char") ->
      (match peek s with _, KW "const" -> advance s | _ -> ());
      expect_kw s "char";
      expect_sym s "*";
      Ast.Str_param (ident s)
  | _ -> fail_tok s "expected a parameter"

let parse_func s =
  expect_kw s "int";
  let name = ident s in
  expect_sym s "(";
  let params =
    match peek s with
    | _, SYM ")" -> []
    | _ ->
        let rec more acc =
          match peek s with
          | _, SYM "," ->
              advance s;
              more (parse_param s :: acc)
          | _ -> List.rev acc
        in
        more [ parse_param s ]
  in
  expect_sym s ")";
  let body = parse_block s in
  { Ast.name; params; body }

let run f input =
  match lex input with
  | exception Error_at e -> Error e
  | toks -> (
      let s = { toks } in
      match f s with
      | result -> Ok result
      | exception Error_at e -> Error e)

let func input =
  run
    (fun s ->
       let f = parse_func s in
       match peek s with
       | _, EOF -> f
       | line, _ -> fail line "trailing input after function")
    input

let program input =
  run
    (fun s ->
       let rec funcs acc =
         match peek s with
         | _, EOF -> List.rev acc
         | _ -> funcs (parse_func s :: acc)
       in
       funcs [])
    input

let roundtrips f =
  match func (Ast.func_to_string f) with
  | Ok g -> Ast.func_to_string g = Ast.func_to_string f
  | Error _ -> false