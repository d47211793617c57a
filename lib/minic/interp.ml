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

(* ---- names resolved to slots ---------------------------------------

   [run] resolves every name once, before the body executes: a
   variable becomes an index into one [value option array], a buffer
   its stack address and capacity, an array its base and element
   count.  A loop iteration then indexes an array instead of probing
   string-keyed tables.  Buffers and arrays are fixed for the whole run
   (C reserves stack slots at function entry), so resolving them early
   changes no outcome; an undeclared buffer or array resolves to
   [at = None] and rejects at the point of execution where a by-name
   lookup would have failed.  Evaluation order, and with it the order
   of every seam the machine and socket consult, is the tree walker's.
   The retired tree walker is the differential oracle in test/. *)

type region = { name : string; at : (Machine.Addr.t * int) option }

type expr =
  | Lit of value
  | Var of int * string          (* slot, and the name for the error *)
  | Buf of Machine.Addr.t        (* a buffer read as its C string *)
  | Bin of Ast.binop * expr * expr
  | Not of expr
  | Atoi of expr
  | Strlen of expr

type stmt =
  | Set of int * expr
  | Recv of int * region * expr * expr   (* rc slot, buffer, offset, max *)
  | Store of region * expr * expr
  | Strcpy of region * expr
  | Strncpy of region * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | Reject of string
  | Return of expr

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

let rec resolve_expr sc (e : Ast.expr) =
  match e with
  | Ast.Int_lit n -> Lit (Vint n)
  | Ast.Str_lit s -> Lit (Vstr s)
  | Ast.Var v -> (
      match Hashtbl.find_opt sc.buffers v with
      | Some (addr, _) -> Buf addr
      | None -> Var (slot sc v, v))
  | Ast.Bin (op, a, b) -> Bin (op, resolve_expr sc a, resolve_expr sc b)
  | Ast.Not e -> Not (resolve_expr sc e)
  | Ast.Atoi e -> Atoi (resolve_expr sc e)
  | Ast.Strlen e -> Strlen (resolve_expr sc e)

let buffer sc name = { name; at = Hashtbl.find_opt sc.buffers name }

let rec resolve_stmt sc (s : Ast.stmt) =
  let ex = resolve_expr sc in
  match s with
  | Ast.Decl_int (v, e) | Ast.Assign (v, e) -> Some (Set (slot sc v, ex e))
  | Ast.Decl_buf _ | Ast.Decl_buf_dyn _ -> None  (* allocated up front *)
  | Ast.Recv_into (rc, b, off, max) ->
      Some (Recv (slot sc rc, buffer sc b, ex off, ex max))
  | Ast.Array_store (a, idx, v) ->
      Some (Store ({ name = a; at = List.assoc_opt a sc.arrays }, ex idx, ex v))
  | Ast.Strcpy (b, e) -> Some (Strcpy (buffer sc b, ex e))
  | Ast.Strncpy (b, e, bound) -> Some (Strncpy (buffer sc b, ex e, ex bound))
  | Ast.If (c, t, e) -> Some (If (ex c, resolve_block sc t, resolve_block sc e))
  | Ast.While (c, body) -> Some (While (ex c, resolve_block sc body))
  | Ast.Do_while (body, c) -> Some (Do_while (resolve_block sc body, ex c))
  | Ast.Reject reason -> Some (Reject reason)
  | Ast.Return e -> Some (Return (ex e))

and resolve_block sc stmts = List.filter_map (resolve_stmt sc) stmts

(* ---- execution ----------------------------------------------------- *)

type state = {
  mem : Machine.Memory.t;
  vars : value option array;
  socket : Osmodel.Socket.t;
}

let truthy n = n <> 0

let as_int = function
  | Vint n -> n
  | Vstr _ -> raise (Stop (Rejected "type error: expected int"))

let as_str = function
  | Vstr s -> s
  | Vint _ -> raise (Stop (Rejected "type error: expected string"))

(* [eval_int st e] is [as_int (eval st e)] without boxing the results
   of arithmetic, comparisons and tests along the way: a loop condition
   or an offset computation allocates nothing. *)
let rec eval st = function
  | Lit v -> v
  | Var (i, name) -> (
      match st.vars.(i) with
      | Some v -> v
      | None -> raise (Stop (Rejected ("unbound variable " ^ name))))
  | Buf addr -> Vstr (Machine.Memory.read_cstring st.mem addr)
  | (Bin _ | Not _ | Atoi _ | Strlen _) as e -> Vint (eval_int st e)

and eval_int st = function
  | Bin (op, a, b) -> eval_bin st op a b
  | Not e -> if truthy (eval_int st e) then 0 else 1
  | Atoi e -> Pfsm.Strcodec.atoi32 (as_str (eval st e))
  | Strlen e -> String.length (as_str (eval st e))
  | (Lit _ | Var _ | Buf _) as e -> as_int (eval st e)

(* One exhaustive match, each constructor with its own arm: the
   short-circuit ops never reach the strict-evaluation helpers, by
   construction rather than by an [assert false] that adversarial
   Progen ASTs could in principle reach. *)
and eval_bin st op a b =
  match op with
  | Ast.And -> if truthy (eval_int st a) && truthy (eval_int st b) then 1 else 0
  | Ast.Or -> if truthy (eval_int st a) || truthy (eval_int st b) then 1 else 0
  | Ast.Add -> num st a b ( + )
  | Ast.Sub -> num st a b ( - )
  | Ast.Mul -> num st a b ( * )
  | Ast.Lt -> cmp st a b ( < )
  | Ast.Le -> cmp st a b ( <= )
  | Ast.Gt -> cmp st a b ( > )
  | Ast.Ge -> cmp st a b ( >= )
  | Ast.Eq -> cmp st a b ( = )
  | Ast.Ne -> cmp st a b ( <> )

and num st a b f =
  let x = eval_int st a and y = eval_int st b in
  Pfsm.Strcodec.wrap32 (f x y)

and cmp st a b (f : int -> int -> bool) =
  let x = eval_int st a and y = eval_int st b in
  if f x y then 1 else 0

let overflow buffer ~wrote ~capacity =
  Stop (Memory_violation (Buffer_overflow { buffer; wrote; capacity }))

let machine_fault addr = Stop (Memory_violation (Machine_fault addr))

let copy_into_buffer st (b : region) data =
  match b.at with
  | None -> raise (Stop (Rejected ("no such buffer " ^ b.name)))
  | Some (addr, capacity) -> (
      match Machine.Cstring.strcpy st.mem ~dst:addr data with
      | () ->
          if String.length data + 1 > capacity then
            raise (overflow b.name ~wrote:(String.length data + 1) ~capacity)
      | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr))

let rec exec st = function
  | Set (i, e) -> st.vars.(i) <- Some (eval st e)
  | Recv (rc_slot, b, off_e, max_e) -> (
      match b.at with
      | None -> raise (Stop (Rejected ("no such buffer " ^ b.name)))
      | Some (addr, capacity) -> (
          let off = eval_int st off_e in
          let maxlen = eval_int st max_e in
          let chunk = Osmodel.Socket.recv st.socket maxlen in
          let rc = String.length chunk in
          match Machine.Memory.write_string st.mem (addr + off) chunk with
          | () ->
              st.vars.(rc_slot) <- Some (Vint rc);
              if rc > 0 && off + rc > capacity then
                raise (overflow b.name ~wrote:(off + rc) ~capacity)
          | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr)))
  | Store (a, idx_e, v_e) -> (
      match a.at with
      | None -> raise (Stop (Rejected ("no such array " ^ a.name)))
      | Some (base, count) -> (
          let idx = eval_int st idx_e in
          let v = eval_int st v_e in
          match Machine.Memory.write_i32 st.mem (base + (4 * idx)) v with
          | () ->
              if idx < 0 || idx >= count then
                raise
                  (Stop (Memory_violation (Array_oob { array = a.name; index = idx })))
          | exception Machine.Memory.Fault { addr; _ } -> raise (machine_fault addr)))
  | Strcpy (b, e) -> copy_into_buffer st b (as_str (eval st e))
  | Strncpy (b, e, bound_e) ->
      let s = as_str (eval st e) in
      let bound = eval_int st bound_e in
      let copy = if bound < 0 then s else String.sub s 0 (min bound (String.length s)) in
      copy_into_buffer st b copy
  | If (cond, then_, else_) ->
      if truthy (eval_int st cond) then exec_block st then_
      else exec_block st else_
  | While (cond, body) ->
      let iterations = ref 0 in
      while truthy (eval_int st cond) do
        incr iterations;
        if !iterations > loop_bound then raise (Stop Diverged);
        exec_block st body
      done
  | Do_while (body, cond) ->
      let iterations = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        incr iterations;
        if !iterations > loop_bound then raise (Stop Diverged);
        exec_block st body;
        continue_ := truthy (eval_int st cond)
      done
  | Reject reason -> raise (Stop (Rejected reason))
  | Return e -> raise (Stop (Returned (eval_int st e)))

and exec_block st = function
  | [] -> ()
  | s :: rest ->
      exec st s;
      exec_block st rest

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
  (* A dynamic buffer's size sees only the parameters (as many as the
     arguments cover) and no buffers: a probe state over the slots
     resolved so far. *)
  let size_of e =
    let e = resolve_expr { sc with buffers = Hashtbl.create 1 } e in
    let vars = Array.make (Hashtbl.length sc.slots) None in
    (try List.iter2 (fun i arg -> vars.(i) <- Some arg) param_slots args
     with Invalid_argument _ -> ());
    match eval { mem; vars; socket = Osmodel.Socket.of_string "" } e with
    | Vint n -> n
    | Vstr _ -> 0
    | exception Stop _ -> 0
  in
  let bufs = buffer_decls ~size_of f.Ast.body in
  Machine.Stack.push_frame stack ~func:f.Ast.name
    ~ret_addr:(Machine.Process.code_addr proc "caller")
    ~locals:bufs;
  List.iter
    (fun (name, n) -> Hashtbl.replace sc.buffers name (Machine.Stack.local_addr stack name, n))
    bufs;
  let body = resolve_block sc f.Ast.body in
  let vars = Array.make (Hashtbl.length sc.slots) None in
  (try
     List.iter2
       (fun (param, i) arg ->
          match param, arg with
          | Ast.Int_param _, Vint _ | Ast.Str_param _, Vstr _ -> vars.(i) <- Some arg
          | Ast.Int_param p, _ | Ast.Str_param p, _ ->
              invalid_arg ("Interp.run: argument type mismatch for " ^ p))
       (List.combine f.Ast.params param_slots)
       args
   with Invalid_argument _ ->
     invalid_arg "Interp.run: wrong number or types of arguments");
  match exec_block { mem; vars; socket = Osmodel.Socket.of_string socket } body with
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
