type value = Vint of int | Vstr of string

type violation =
  | Array_oob of { array : string; index : int }
  | Buffer_overflow of { buffer : string; wrote : int; capacity : int }
  | Machine_fault of Machine.Addr.t

type outcome =
  | Returned of int
  | Rejected of string
  | Memory_violation of violation
  | Diverged

let loop_bound = 100_000

exception Stop of outcome

(* ---- compilation to closures --------------------------------------

   [run] compiles the function once, before the body executes, into
   closures over unboxed slots.  A variable becomes an index into three
   arrays of the run's state: its int, its string, and a kind byte that
   says which of the two it holds or that it is still unbound.  A buffer
   compiles to its stack address and capacity, an array to its base and
   element count.  A loop iteration then calls closures that index
   arrays: an assignment stores an int and a kind byte, and arithmetic
   and tests return unboxed ints, so the recv loop of ReadPOSTData
   allocates nothing per iteration.  Buffers and arrays are fixed for
   the whole run (C reserves stack slots at function entry), so
   resolving them early changes no outcome; an undeclared buffer or
   array compiles to a closure that rejects at the point of execution
   where a by-name lookup would have failed.  Evaluation order, and
   with it the order of every seam the machine and socket consult, is
   the tree walker's.  The retired tree walker is the differential
   oracle in test/. *)

type state = {
  mem : Machine.Memory.t;
  socket : Osmodel.Socket.t;
  ints : int array;
  strs : string array;
  kinds : Bytes.t;  (* per slot: [unbound], [int_kind] or [str_kind] *)
}

let unbound = '\000'
let int_kind = '\001'
let str_kind = '\002'

type scope = {
  slots : (string, int) Hashtbl.t;
  buffers : (string, Machine.Addr.t * int) Hashtbl.t;  (* addr, capacity *)
  arrays : (string * (Machine.Addr.t * int)) list;    (* base, element count *)
}

let slot sc name =
  match Hashtbl.find_opt sc.slots name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length sc.slots in
      Hashtbl.add sc.slots name i;
      i

let reject reason = raise (Stop (Rejected reason))
let not_int () = reject "type error: expected int"
let not_str () = reject "type error: expected string"
let unbound_var name = reject ("unbound variable " ^ name)

(* [int_of sc e] evaluates [e] where C wants an int, [str_of sc e]
   where it wants a string; each raises the type error the other kind
   of value meets, after evaluating it. *)
let rec int_of sc (e : Ast.expr) : state -> int =
  match e with
  | Ast.Int_lit n -> fun _ -> n
  | Ast.Var v when not (Hashtbl.mem sc.buffers v) ->
      let i = slot sc v in
      fun st ->
        let k = Bytes.get st.kinds i in
        if k = int_kind then st.ints.(i)
        else if k = str_kind then not_int ()
        else unbound_var v
  | Ast.Str_lit _ | Ast.Var _ ->
      let e = str_of sc e in
      fun st ->
        ignore (e st);
        not_int ()
  | Ast.Bin (op, a, b) -> bin op (int_of sc a) (int_of sc b)
  | Ast.Not e ->
      let e = int_of sc e in
      fun st -> if e st <> 0 then 0 else 1
  | Ast.Atoi e ->
      let e = str_of sc e in
      fun st -> Pfsm.Strcodec.atoi32 (e st)
  | Ast.Strlen e ->
      let e = str_of sc e in
      fun st -> String.length (e st)

and str_of sc (e : Ast.expr) : state -> string =
  match e with
  | Ast.Str_lit s -> fun _ -> s
  | Ast.Var v -> (
      match Hashtbl.find_opt sc.buffers v with
      | Some (addr, _) -> fun st -> Machine.Memory.read_cstring st.mem addr
      | None ->
          let i = slot sc v in
          fun st ->
            let k = Bytes.get st.kinds i in
            if k = str_kind then st.strs.(i)
            else if k = int_kind then not_str ()
            else unbound_var v)
  | Ast.Int_lit _ -> fun _ -> not_str ()
  | Ast.Bin _ | Ast.Not _ | Ast.Atoi _ | Ast.Strlen _ ->
      let e = int_of sc e in
      fun st ->
        ignore (e st);
        not_str ()

(* One closure per operator: the short-circuit ops evaluate their right
   operand only when C would, and the strict ones evaluate left to
   right. *)
and bin op (x : state -> int) (y : state -> int) : state -> int =
  match op with
  | Ast.And -> fun st -> if x st <> 0 && y st <> 0 then 1 else 0
  | Ast.Or -> fun st -> if x st <> 0 || y st <> 0 then 1 else 0
  | Ast.Add -> fun st -> let a = x st in Pfsm.Strcodec.wrap32 (a + y st)
  | Ast.Sub -> fun st -> let a = x st in Pfsm.Strcodec.wrap32 (a - y st)
  | Ast.Mul -> fun st -> let a = x st in Pfsm.Strcodec.wrap32 (a * y st)
  | Ast.Lt -> fun st -> let a = x st in if a < y st then 1 else 0
  | Ast.Le -> fun st -> let a = x st in if a <= y st then 1 else 0
  | Ast.Gt -> fun st -> let a = x st in if a > y st then 1 else 0
  | Ast.Ge -> fun st -> let a = x st in if a >= y st then 1 else 0
  | Ast.Eq -> fun st -> let a = x st in if a = y st then 1 else 0
  | Ast.Ne -> fun st -> let a = x st in if a <> y st then 1 else 0

(* [v = e]: the slot takes the value and the kind of [e]. *)
let assign sc v (e : Ast.expr) : state -> unit =
  let i = slot sc v in
  match e with
  | Ast.Var w when not (Hashtbl.mem sc.buffers w) ->
      let j = slot sc w in
      fun st ->
        let k = Bytes.get st.kinds j in
        if k = unbound then unbound_var w;
        st.ints.(i) <- st.ints.(j);
        st.strs.(i) <- st.strs.(j);
        Bytes.set st.kinds i k
  | Ast.Var _ | Ast.Str_lit _ ->
      let e = str_of sc e in
      fun st ->
        st.strs.(i) <- e st;
        Bytes.set st.kinds i str_kind
  | Ast.Int_lit _ | Ast.Bin _ | Ast.Not _ | Ast.Atoi _ | Ast.Strlen _ ->
      let e = int_of sc e in
      fun st ->
        st.ints.(i) <- e st;
        Bytes.set st.kinds i int_kind

let overflow buffer ~wrote ~capacity =
  Stop (Memory_violation (Buffer_overflow { buffer; wrote; capacity }))

let machine_fault addr = Stop (Memory_violation (Machine_fault addr))

(* The copy step of [strcpy] and [strncpy], applied to the evaluated
   source: the buffer's existence is checked after the source. *)
let copy_into sc name : state -> string -> unit =
  match Hashtbl.find_opt sc.buffers name with
  | None -> fun _ _ -> reject ("no such buffer " ^ name)
  | Some (addr, capacity) ->
      fun st data ->
        match Machine.Cstring.strcpy st.mem ~dst:addr data with
        | () ->
            if String.length data + 1 > capacity then
              raise (overflow name ~wrote:(String.length data + 1) ~capacity)
        | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr)

let rec seq = function
  | [] -> fun _ -> ()
  | [ s ] -> s
  | s :: rest ->
      let rest = seq rest in
      fun st ->
        s st;
        rest st

let rec stmt sc (s : Ast.stmt) : (state -> unit) option =
  match s with
  | Ast.Decl_int (v, e) | Ast.Assign (v, e) -> Some (assign sc v e)
  | Ast.Decl_buf _ | Ast.Decl_buf_dyn _ -> None  (* allocated up front *)
  | Ast.Recv_into (rc, b, off, max) ->
      let rc = slot sc rc in
      Some
        (match Hashtbl.find_opt sc.buffers b with
         | None -> fun _ -> reject ("no such buffer " ^ b)
         | Some (addr, capacity) -> (
             let off = int_of sc off and max = int_of sc max in
             fun st ->
               let off = off st in
               let maxlen = max st in
               let chunk = Osmodel.Socket.recv st.socket maxlen in
               let n = String.length chunk in
               match Machine.Memory.write_string st.mem (addr + off) chunk with
               | () ->
                   st.ints.(rc) <- n;
                   Bytes.set st.kinds rc int_kind;
                   if n > 0 && off + n > capacity then
                     raise (overflow b ~wrote:(off + n) ~capacity)
               | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr)))
  | Ast.Array_store (a, idx, v) ->
      Some
        (match List.assoc_opt a sc.arrays with
         | None -> fun _ -> reject ("no such array " ^ a)
         | Some (base, count) -> (
             let idx = int_of sc idx and v = int_of sc v in
             fun st ->
               let idx = idx st in
               let v = v st in
               match Machine.Memory.write_i32 st.mem (base + (4 * idx)) v with
               | () ->
                   if idx < 0 || idx >= count then
                     raise (Stop (Memory_violation (Array_oob { array = a; index = idx })))
               | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr)))
  | Ast.Strcpy (b, e) ->
      let e = str_of sc e and copy = copy_into sc b in
      Some (fun st -> copy st (e st))
  | Ast.Strncpy (b, e, bound) ->
      let e = str_of sc e and bound = int_of sc bound and copy = copy_into sc b in
      Some
        (fun st ->
           let s = e st in
           let bound = bound st in
           copy st (if bound < 0 then s else String.sub s 0 (min bound (String.length s))))
  | Ast.If (c, then_, else_) ->
      let c = int_of sc c and then_ = block sc then_ and else_ = block sc else_ in
      Some (fun st -> if c st <> 0 then then_ st else else_ st)
  | Ast.While (c, body) ->
      let c = int_of sc c and body = block sc body in
      Some
        (fun st ->
           let iterations = ref 0 in
           while c st <> 0 do
             incr iterations;
             if !iterations > loop_bound then raise (Stop Diverged);
             body st
           done)
  | Ast.Do_while (body, c) ->
      let body = block sc body and c = int_of sc c in
      Some
        (fun st ->
           let iterations = ref 0 in
           let continue_ = ref true in
           while !continue_ do
             incr iterations;
             if !iterations > loop_bound then raise (Stop Diverged);
             body st;
             continue_ := c st <> 0
           done)
  | Ast.Reject reason -> Some (fun _ -> reject reason)
  | Ast.Return e ->
      let e = int_of sc e in
      Some (fun st -> raise (Stop (Returned (e st))))

and block sc stmts = seq (List.filter_map (stmt sc) stmts)

(* ---- a run --------------------------------------------------------- *)

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

let param_name = function Ast.Int_param p | Ast.Str_param p -> p

let run ?(arrays = []) ?(socket = "") (f : Ast.func) ~args =
  let proc = Machine.Process.create () in
  Machine.Process.register_function proc "caller";
  let mem = Machine.Process.mem proc in
  let array_layout =
    List.map
      (fun (name, count) -> (name, (Machine.Process.alloc_global proc name (4 * count), count)))
      arrays
  in
  let stack = Machine.Process.stack proc in
  let sc = { slots = Hashtbl.create 16; buffers = Hashtbl.create 4; arrays = array_layout } in
  let param_slots = List.map (fun p -> slot sc (param_name p)) f.Ast.params in
  (* A state over the slots numbered so far, with the parameters bound
     as far as the arguments cover them. *)
  let state socket =
    let n = Hashtbl.length sc.slots in
    let st =
      { mem; socket; ints = Array.make n 0; strs = Array.make n "";
        kinds = Bytes.make n unbound }
    in
    (try
       List.iter2
         (fun i arg ->
            match arg with
            | Vint v ->
                st.ints.(i) <- v;
                Bytes.set st.kinds i int_kind
            | Vstr s ->
                st.strs.(i) <- s;
                Bytes.set st.kinds i str_kind)
         param_slots args
     with Invalid_argument _ -> ());
    st
  in
  (* A dynamic buffer's size sees only the parameters and no buffers. *)
  let size_of e =
    let e = int_of { sc with buffers = Hashtbl.create 1 } e in
    match e (state (Osmodel.Socket.of_string "")) with
    | n -> n
    | exception Stop _ -> 0
  in
  let bufs = buffer_decls ~size_of f.Ast.body in
  Machine.Stack.push_frame stack ~func:f.Ast.name
    ~ret_addr:(Machine.Process.code_addr proc "caller")
    ~locals:bufs;
  List.iter
    (fun (name, n) -> Hashtbl.replace sc.buffers name (Machine.Stack.local_addr stack name, n))
    bufs;
  let body = block sc f.Ast.body in
  (try
     List.iter2
       (fun param arg ->
          match param, arg with
          | Ast.Int_param _, Vint _ | Ast.Str_param _, Vstr _ -> ()
          | Ast.Int_param p, _ | Ast.Str_param p, _ ->
              invalid_arg ("Interp.run: argument type mismatch for " ^ p))
       f.Ast.params args
   with Invalid_argument _ ->
     invalid_arg "Interp.run: wrong number or types of arguments");
  match body (state (Osmodel.Socket.of_string socket)) with
  | () -> Returned 0
  | exception Stop outcome -> outcome

let pp_outcome ppf = function
  | Returned n -> Format.fprintf ppf "returned %d" n
  | Rejected reason -> Format.fprintf ppf "rejected: %s" reason
  | Memory_violation (Array_oob { array; index }) ->
      Format.fprintf ppf "MEMORY VIOLATION: %s[%d] is out of bounds" array index
  | Memory_violation (Buffer_overflow { buffer; wrote; capacity }) ->
      Format.fprintf ppf "MEMORY VIOLATION: wrote %d bytes into %s[%d]" wrote buffer
        capacity
  | Memory_violation (Machine_fault addr) ->
      Format.fprintf ppf "MEMORY VIOLATION: fault at 0x%08x" addr
  | Diverged -> Format.fprintf ppf "diverged (loop bound exceeded)"
