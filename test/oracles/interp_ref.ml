(* The retired tree-walking mini-C interpreter, kept as the
   differential oracle for the closure-compiled {!Minic.Interp}: every
   variable, buffer and array access looks its name up in a Hashtbl or
   an assoc list, exactly as the production interpreter did before
   names were resolved to slots.  It shares the production result
   types, so outcomes from the two compare with [=]. *)

open Minic.Interp
module Ast = Minic.Ast

exception Stop of outcome

type state = {
  proc : Machine.Process.t;
  vars : (string, value) Hashtbl.t;
  arrays : (string * (Machine.Addr.t * int)) list;   (* base, element count *)
  buffers : (string, Machine.Addr.t * int) Hashtbl.t; (* addr, capacity *)
  socket : Osmodel.Socket.t;
}

let truthy n = n <> 0

let as_int = function
  | Vint n -> n
  | Vstr _ -> raise (Stop (Rejected "type error: expected int"))

let as_str = function
  | Vstr s -> s
  | Vint _ -> raise (Stop (Rejected "type error: expected string"))

let lookup st v =
  match Hashtbl.find_opt st.vars v with
  | Some value -> value
  | None -> raise (Stop (Rejected ("unbound variable " ^ v)))

let rec eval st (e : Ast.expr) : value =
  match e with
  | Ast.Int_lit n -> Vint n
  | Ast.Str_lit s -> Vstr s
  | Ast.Var v -> (
      match Hashtbl.find_opt st.buffers v with
      | Some (addr, _) ->
          (* a buffer in expression position reads as its C string *)
          Vstr (Machine.Memory.read_cstring (Machine.Process.mem st.proc) addr)
      | None -> lookup st v)
  | Ast.Bin (op, a, b) -> eval_bin st op a b
  | Ast.Not e -> Vint (if truthy (as_int (eval st e)) then 0 else 1)
  | Ast.Atoi e -> Vint (Pfsm.Strcodec.atoi32 (as_str (eval st e)))
  | Ast.Strlen e -> Vint (String.length (as_str (eval st e)))

and eval_bin st op a b =
  (* One exhaustive match, each constructor with its own arm: the
     short-circuit ops never reach the strict-evaluation helpers, by
     construction rather than by an [assert false] that adversarial
     Progen ASTs could in principle reach. *)
  let num f =
    let x = as_int (eval st a) and y = as_int (eval st b) in
    Vint (Pfsm.Strcodec.wrap32 (f x y))
  in
  let cmp f =
    let x = as_int (eval st a) and y = as_int (eval st b) in
    Vint (if f x y then 1 else 0)
  in
  match op with
  | Ast.And -> Vint (if truthy (as_int (eval st a)) && truthy (as_int (eval st b)) then 1 else 0)
  | Ast.Or -> Vint (if truthy (as_int (eval st a)) || truthy (as_int (eval st b)) then 1 else 0)
  | Ast.Add -> num ( + )
  | Ast.Sub -> num ( - )
  | Ast.Mul -> num ( * )
  | Ast.Lt -> cmp ( < )
  | Ast.Le -> cmp ( <= )
  | Ast.Gt -> cmp ( > )
  | Ast.Ge -> cmp ( >= )
  | Ast.Eq -> cmp ( = )
  | Ast.Ne -> cmp ( <> )

let copy_into_buffer st buffer data =
  match Hashtbl.find_opt st.buffers buffer with
  | None -> raise (Stop (Rejected ("no such buffer " ^ buffer)))
  | Some (addr, capacity) -> (
      match Machine.Cstring.strcpy (Machine.Process.mem st.proc) ~dst:addr data with
      | () ->
          if String.length data + 1 > capacity then
            raise
              (Stop
                 (Memory_violation
                    (Buffer_overflow
                       { buffer; wrote = String.length data + 1; capacity })))
      | exception Machine.Memory.Fault { addr; _ } ->
          raise (Stop (Memory_violation (Machine_fault addr))))

let rec exec st (stmt : Ast.stmt) =
  match stmt with
  | Ast.Decl_int (v, e) | Ast.Assign (v, e) -> Hashtbl.replace st.vars v (eval st e)
  | Ast.Decl_buf (_, _) | Ast.Decl_buf_dyn (_, _) ->
      ()   (* allocated up front, like C stack slots *)
  | Ast.Recv_into (rc_var, buffer, off_e, max_e) -> (
      match Hashtbl.find_opt st.buffers buffer with
      | None -> raise (Stop (Rejected ("no such buffer " ^ buffer)))
      | Some (addr, capacity) -> (
          let off = as_int (eval st off_e) in
          let maxlen = as_int (eval st max_e) in
          let chunk = Osmodel.Socket.recv st.socket maxlen in
          let rc = String.length chunk in
          match
            Machine.Memory.write_string (Machine.Process.mem st.proc) (addr + off) chunk
          with
          | () ->
              Hashtbl.replace st.vars rc_var (Vint rc);
              if rc > 0 && off + rc > capacity then
                raise
                  (Stop
                     (Memory_violation
                        (Buffer_overflow
                           { buffer; wrote = off + rc; capacity })))
          | exception Machine.Memory.Fault { addr; _ } ->
              raise (Stop (Memory_violation (Machine_fault addr)))))
  | Ast.Array_store (array, idx_e, v_e) -> (
      match List.assoc_opt array st.arrays with
      | None -> raise (Stop (Rejected ("no such array " ^ array)))
      | Some (base, count) -> (
          let idx = as_int (eval st idx_e) in
          let v = as_int (eval st v_e) in
          let addr = base + (4 * idx) in
          match Machine.Memory.write_i32 (Machine.Process.mem st.proc) addr v with
          | () ->
              if idx < 0 || idx >= count then
                raise (Stop (Memory_violation (Array_oob { array; index = idx })))
          | exception Machine.Memory.Fault { addr; _ } ->
              raise (Stop (Memory_violation (Machine_fault addr)))))
  | Ast.Strcpy (buffer, e) -> copy_into_buffer st buffer (as_str (eval st e))
  | Ast.Strncpy (buffer, e, bound_e) ->
      let s = as_str (eval st e) in
      let bound = as_int (eval st bound_e) in
      let copy = if bound < 0 then s else String.sub s 0 (min bound (String.length s)) in
      copy_into_buffer st buffer copy
  | Ast.If (cond, then_, else_) ->
      if truthy (as_int (eval st cond)) then List.iter (exec st) then_
      else List.iter (exec st) else_
  | Ast.While (cond, body) ->
      let iterations = ref 0 in
      while truthy (as_int (eval st cond)) do
        incr iterations;
        if !iterations > loop_bound then raise (Stop Diverged);
        List.iter (exec st) body
      done
  | Ast.Do_while (body, cond) ->
      let iterations = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        incr iterations;
        if !iterations > loop_bound then raise (Stop Diverged);
        List.iter (exec st) body;
        continue_ := truthy (as_int (eval st cond))
      done
  | Ast.Reject reason -> raise (Stop (Rejected reason))
  | Ast.Return e -> raise (Stop (Returned (as_int (eval st e))))

(* Gather every buffer declaration (C reserves stack slots at function
   entry regardless of where the declaration appears). *)
let rec buffer_decls ~size_of stmts =
  List.concat_map
    (fun (stmt : Ast.stmt) ->
       match stmt with
       | Ast.Decl_buf (name, n) -> [ (name, n) ]
       | Ast.Decl_buf_dyn (name, e) -> [ (name, max 0 (size_of e)) ]
       | Ast.If (_, a, b) -> buffer_decls ~size_of a @ buffer_decls ~size_of b
       | Ast.While (_, body) | Ast.Do_while (body, _) -> buffer_decls ~size_of body
       | Ast.Decl_int _ | Ast.Assign _ | Ast.Array_store _ | Ast.Strcpy _
       | Ast.Strncpy _ | Ast.Recv_into _ | Ast.Reject _ | Ast.Return _ -> [])
    stmts

let run ?(arrays = []) ?(socket = "") (f : Ast.func) ~args =
  let proc = Machine.Process.create () in
  Machine.Process.register_function proc "caller";
  let array_layout =
    List.map
      (fun (name, count) -> (name, (Machine.Process.alloc_global proc name (4 * count), count)))
      arrays
  in
  let stack = Machine.Process.stack proc in
  let param_env = Hashtbl.create 8 in
  (try
     List.iter2
       (fun param arg ->
          match param with
          | Ast.Int_param p | Ast.Str_param p -> Hashtbl.replace param_env p arg)
       f.Ast.params args
   with Invalid_argument _ -> ());
  let size_of e =
    let probe =
      { proc; vars = param_env; arrays = []; buffers = Hashtbl.create 1;
        socket = Osmodel.Socket.of_string "" }
    in
    match eval probe e with
    | Vint n -> n
    | Vstr _ -> 0
    | exception Stop _ -> 0
  in
  let bufs = buffer_decls ~size_of f.Ast.body in
  Machine.Stack.push_frame stack ~func:f.Ast.name
    ~ret_addr:(Machine.Process.code_addr proc "caller")
    ~locals:(List.map (fun (name, n) -> (name, n)) bufs);
  let buffers = Hashtbl.create 4 in
  List.iter
    (fun (name, n) -> Hashtbl.replace buffers name (Machine.Stack.local_addr stack name, n))
    bufs;
  let vars = Hashtbl.create 8 in
  (try
     List.iter2
       (fun param arg ->
          match param, arg with
          | Ast.Int_param p, Vint _ -> Hashtbl.replace vars p arg
          | Ast.Str_param p, Vstr _ -> Hashtbl.replace vars p arg
          | Ast.Int_param p, _ | Ast.Str_param p, _ ->
              invalid_arg ("Interp.run: argument type mismatch for " ^ p))
       f.Ast.params args
   with Invalid_argument _ ->
     invalid_arg "Interp.run: wrong number or types of arguments");
  let st =
    { proc; vars; arrays = array_layout; buffers;
      socket = Osmodel.Socket.of_string socket }
  in
  match List.iter (exec st) f.Ast.body with
  | () -> Returned 0
  | exception Stop outcome -> outcome
