(* Executable specification of {!Absint}: the original string-keyed
   [Map.Make (String)] abstract environments and the per-store
   [List.assoc_opt] array lookup, kept verbatim so the slot-array
   production interpreter can be checked against it finding for
   finding (and benchmarked against it).  Emits {!Absint.raw} values,
   so results from the two interpreters compare structurally. *)

open Staticcheck
module A = Minic.Ast
module I = Interval
module V = Absval
module Smap = Map.Make (String)

(* ---- abstract environments ---------------------------------------- *)

type env = { vars : V.t Smap.t; bufs : V.num Smap.t }

let resolve_in env base =
  match Smap.find_opt base env.vars with
  | Some v -> (V.as_num v).V.itv
  | None -> I.top

let merge_with f a b =
  Smap.merge
    (fun _ x y ->
       match x, y with
       | Some x, Some y -> Some (f x y)
       | (Some _ as v), None | None, (Some _ as v) -> v
       | None, None -> None)
    a b

let join_env e1 e2 =
  let resolve base = I.join (resolve_in e1 base) (resolve_in e2 base) in
  { vars = merge_with (V.join_r ~resolve) e1.vars e2.vars;
    bufs = merge_with (V.join_num_r ~resolve) e1.bufs e2.bufs }

let widen_env old next =
  { vars = merge_with V.widen old.vars next.vars;
    bufs = merge_with V.widen_num old.bufs next.bufs }

let env_equal a b =
  Smap.equal V.equal a.vars b.vars && Smap.equal V.equal_num a.bufs b.bufs

let join_opt a b =
  match a, b with
  | None, x | x, None -> x
  | Some e1, Some e2 -> Some (join_env e1 e2)

let kill_sym v (n : V.num) =
  let keep = function Some s when s.V.base = v -> None | o -> o in
  { n with V.lo_sym = keep n.V.lo_sym; hi_sym = keep n.V.hi_sym }

let kill_sym_t v = function
  | V.Num n -> V.Num (kill_sym v n)
  | V.Str n -> V.Str (kill_sym v n)

let kill_base v env =
  { vars = Smap.map (kill_sym_t v) env.vars;
    bufs = Smap.map (kill_sym v) env.bufs }

let tighten env (n : V.num) =
  let itv = n.V.itv in
  let itv =
    match n.V.lo_sym with
    | Some s -> (
        match I.lo_int (resolve_in env s.V.base) with
        | Some l -> I.clamp_lo (l + s.V.off) itv
        | None -> itv)
    | None -> itv
  in
  let itv =
    match n.V.hi_sym with
    | Some s -> (
        match I.hi_int (resolve_in env s.V.base) with
        | Some h -> I.clamp_hi (h + s.V.off) itv
        | None -> itv)
    | None -> itv
  in
  { n with V.itv }

(* ---- expression evaluation ---------------------------------------- *)

let buffer_as_str cap =
  let capm1 = I.add cap.V.itv (I.const (-1)) in
  let itv =
    if I.is_bot capm1 then I.const 0
    else
      match I.of_bounds (I.Fin 0) (I.hi capm1) with
      | t when I.is_bot t -> I.const 0
      | t -> t
  in
  V.Str { V.itv; lo_sym = None; hi_sym = V.sym_shift (-1) cap.V.hi_sym;
          from_atoi = false }

let rec eval env (e : A.expr) : V.t =
  match e with
  | A.Int_lit n -> V.const n
  | A.Str_lit s -> V.str_of_len (I.const (String.length s))
  | A.Var v -> (
      match Smap.find_opt v env.bufs with
      | Some cap -> buffer_as_str (tighten env cap)
      | None -> (
          match Smap.find_opt v env.vars with
          | Some value -> value
          | None -> V.top))
  | A.Bin ((A.Add | A.Sub | A.Mul) as op, a, b) ->
      let x = V.as_num (eval env a) and y = V.as_num (eval env b) in
      let f = match op with
        | A.Add -> V.add_num
        | A.Sub -> V.sub_num
        | _ -> V.mul_num
      in
      V.Num (f x y)
  | A.Bin (_, _, _) | A.Not _ -> V.of_itv (I.range 0 1)
  | A.Atoi _ ->
      V.Num { V.itv = I.int32_full; lo_sym = None; hi_sym = None;
              from_atoi = true }
  | A.Strlen e -> V.Num (V.as_len (eval env e))

(* ---- assume: condition refinement --------------------------------- *)

let cmp_of (op : A.binop) : I.cmp =
  match op with
  | A.Lt -> I.Lt | A.Le -> I.Le | A.Gt -> I.Gt | A.Ge -> I.Ge
  | A.Eq -> I.Eq | A.Ne -> I.Ne
  | A.Add | A.Sub | A.Mul | A.And | A.Or -> invalid_arg "cmp_of"

let negate : I.cmp -> I.cmp = function
  | I.Lt -> I.Ge | I.Le -> I.Gt | I.Gt -> I.Le | I.Ge -> I.Lt
  | I.Eq -> I.Ne | I.Ne -> I.Eq

let flip : I.cmp -> I.cmp = function
  | I.Lt -> I.Gt | I.Le -> I.Ge | I.Gt -> I.Lt | I.Ge -> I.Le
  | I.Eq -> I.Eq | I.Ne -> I.Ne

let derived_syms (op : I.cmp) (other : V.num) ~self =
  let drop_self = function
    | Some s when s.V.base = self -> None
    | o -> o
  in
  let hi = drop_self other.V.hi_sym and lo = drop_self other.V.lo_sym in
  match op with
  | I.Lt -> (None, V.sym_shift (-1) hi)
  | I.Le -> (None, hi)
  | I.Eq -> (lo, hi)
  | I.Ge -> (lo, None)
  | I.Gt -> (V.sym_shift 1 lo, None)
  | I.Ne -> (None, None)

let restrict env expr itv (lo_sym, hi_sym) =
  match expr with
  | A.Var x -> (
      match Smap.find_opt x env.vars with
      | Some (V.Num cur) ->
          let refined =
            V.meet_num cur { V.itv; lo_sym; hi_sym; from_atoi = false }
          in
          { env with vars = Smap.add x (V.Num refined) env.vars }
      | _ -> env)
  | A.Strlen (A.Var s) -> (
      match Smap.find_opt s env.vars with
      | Some (V.Str cur) ->
          let refined =
            V.meet_num cur
              { V.itv = I.meet itv I.nat; lo_sym; hi_sym; from_atoi = false }
          in
          { env with vars = Smap.add s (V.Str refined) env.vars }
      | _ -> env)
  | _ -> env

let assume_cmp env op a b =
  let va = V.as_num (eval env a) and vb = V.as_num (eval env b) in
  let ia', ib' = I.refine op va.V.itv vb.V.itv in
  if I.is_bot ia' || I.is_bot ib' then None
  else
    let self_of = function A.Var x -> x | _ -> "" in
    let env = restrict env a ia' (derived_syms op vb ~self:(self_of a)) in
    let env = restrict env b ib' (derived_syms (flip op) va ~self:(self_of b)) in
    Some env

let rec assume_env env (e : A.expr) : env option =
  match e with
  | A.Int_lit 0 -> None
  | A.Int_lit _ | A.Str_lit _ -> Some env
  | A.Not e -> assume_not_env env e
  | A.Bin (A.And, a, b) ->
      Option.bind (assume_env env a) (fun env -> assume_env env b)
  | A.Bin (A.Or, a, b) -> join_opt (assume_env env a) (assume_env env b)
  | A.Bin ((A.Lt | A.Le | A.Gt | A.Ge | A.Eq | A.Ne) as op, a, b) ->
      assume_cmp env (cmp_of op) a b
  | A.Bin ((A.Add | A.Sub | A.Mul), _, _) -> Some env
  | (A.Var _ | A.Atoi _ | A.Strlen _) as e ->
      assume_cmp env I.Ne e (A.Int_lit 0)

and assume_not_env env (e : A.expr) : env option =
  match e with
  | A.Int_lit 0 -> Some env
  | A.Int_lit _ -> None
  | A.Str_lit _ -> Some env
  | A.Not e -> assume_env env e
  | A.Bin (A.And, a, b) ->
      join_opt (assume_not_env env a) (assume_not_env env b)
  | A.Bin (A.Or, a, b) ->
      Option.bind (assume_not_env env a) (fun env -> assume_not_env env b)
  | A.Bin ((A.Lt | A.Le | A.Gt | A.Ge | A.Eq | A.Ne) as op, a, b) ->
      assume_cmp env (negate (cmp_of op)) a b
  | A.Bin ((A.Add | A.Sub | A.Mul), _, _) -> Some env
  | (A.Var _ | A.Atoi _ | A.Strlen _) as e ->
      assume_cmp env I.Eq e (A.Int_lit 0)

(* ---- checkers ------------------------------------------------------ *)

type ctx = {
  config : Absint.config;
  mutable raws : Absint.raw list;
  mutable emit : bool;
  mutable loop_iterations : int;
  mutable widenings : int;
}

let emit ctx path kind detail fact =
  if ctx.emit then
    ctx.raws <- { Absint.kind; path; detail; fact } :: ctx.raws

let pos_part itv = I.meet itv (I.of_bounds (I.Fin 1) I.Pinf)
let neg_part itv = I.meet itv (I.of_bounds I.Minf (I.Fin (-1)))

let num_str n = Format.asprintf "%a" V.pp_num n

let check_array_store ctx path arr (idx : V.num) =
  let count = List.assoc_opt arr ctx.config.Absint.arrays in
  if not (I.is_bot (neg_part idx.V.itv)) then begin
    emit ctx path
      (Finding.Array_store_oob { array = arr; direction = Finding.Low })
      (Printf.sprintf "index %s can be negative%s" (num_str idx)
         (match count with
          | Some c -> Printf.sprintf " (array has %d slots)" c
          | None -> ""))
      (Absint.Index_fact { idx; count });
    if idx.V.from_atoi then
      emit ctx path
        (Finding.Atoi_wrap_index { array = arr })
        (Printf.sprintf
           "index flows from atoi: inputs beyond 2^31 wrap negative; \
            abstract index %s" (num_str idx))
        (Absint.Index_fact { idx; count })
  end;
  match count with
  | Some c ->
      let high = I.meet idx.V.itv (I.of_bounds (I.Fin c) I.Pinf) in
      if not (I.is_bot high) then
        emit ctx path
          (Finding.Array_store_oob { array = arr; direction = Finding.High })
          (Printf.sprintf "index %s can reach %s, past count %d" (num_str idx)
             (I.to_string high) c)
          (Absint.Index_fact { idx; count })
  | None -> ()

let check_copy ctx env path buf (len : V.num) ~strncpy =
  match Smap.find_opt buf env.bufs with
  | None -> ()
  | Some cap ->
      let cap = tighten env cap in
      if not (I.is_bot len.V.itv || I.is_bot cap.V.itv) then begin
        let wrote = V.add_num len (V.num (I.const 1)) in
        let excess = tighten env (V.sub_num wrote cap) in
        if not (I.is_bot (pos_part excess.V.itv)) then
          let kind =
            if strncpy then Finding.Strncpy_overflow { buffer = buf }
            else if I.hi len.V.itv = I.Pinf && len.V.hi_sym = None then
              Finding.Strcpy_unbounded { buffer = buf }
            else if I.hi excess.V.itv = I.Fin 1 then
              Finding.Strcpy_off_by_one { buffer = buf }
            else Finding.Strcpy_overflow { buffer = buf }
          in
          emit ctx path kind
            (Printf.sprintf "copies len %s (+NUL) into capacity %s; excess %s"
               (num_str len) (num_str cap) (I.to_string excess.V.itv))
            (Absint.Copy_fact { len; cap })
      end

(* ---- statement transfer -------------------------------------------- *)

let rec exec_block ctx prefix env stmts =
  List.fold_left
    (fun (i, env) stmt -> (i + 1, exec_stmt ctx (prefix @ [ i ]) env stmt))
    (0, env) stmts
  |> snd

and exec_stmt ctx path env_opt (stmt : A.stmt) : env option =
  match env_opt with
  | None -> None
  | Some env -> (
      match stmt with
      | A.Decl_int (v, e) | A.Assign (v, e) ->
          let value = kill_sym_t v (eval env e) in
          let env = kill_base v env in
          Some { env with vars = Smap.add v value env.vars }
      | A.Decl_buf (v, n) ->
          Some { env with bufs = Smap.add v (V.num (I.const n)) env.bufs }
      | A.Decl_buf_dyn (v, e) ->
          let cap = tighten env (V.as_num (eval env e)) in
          let cap =
            match I.lo_int cap.V.itv with
            | Some l when l >= 0 -> cap
            | _ ->
                let hi =
                  match I.hi_int cap.V.itv with
                  | Some h -> I.Fin (max h 0)
                  | None -> I.Pinf
                in
                { V.itv = I.of_bounds (I.Fin 0) hi; lo_sym = cap.V.lo_sym;
                  hi_sym = None; from_atoi = false }
          in
          Some { env with bufs = Smap.add v cap env.bufs }
      | A.Array_store (arr, idx_e, _) ->
          let idx = tighten env (V.as_num (eval env idx_e)) in
          if not (I.is_bot idx.V.itv) then check_array_store ctx path arr idx;
          Some env
      | A.Strcpy (buf, e) ->
          let len = tighten env (V.as_len (eval env e)) in
          check_copy ctx env path buf len ~strncpy:false;
          Some env
      | A.Strncpy (buf, e, bound_e) ->
          let len = tighten env (V.as_len (eval env e)) in
          let bound = tighten env (V.as_num (eval env bound_e)) in
          let bpos = V.meet_num bound (V.num I.nat) in
          let truncated =
            if I.is_bot bpos.V.itv then None else Some (V.min_num len bpos)
          in
          let full =
            if I.is_bot (neg_part bound.V.itv) then None else Some len
          in
          let eff =
            match truncated, full with
            | Some t, Some f -> V.join_num t f
            | Some t, None -> t
            | None, Some f -> f
            | None, None -> len
          in
          check_copy ctx env path buf eff ~strncpy:true;
          Some env
      | A.Recv_into (rc, buf, off_e, max_e) ->
          let off = tighten env (V.as_num (eval env off_e)) in
          let maxv = tighten env (V.as_num (eval env max_e)) in
          (match Smap.find_opt buf env.bufs with
           | Some cap0 ->
               let cap = tighten env cap0 in
               let maxpos = I.meet maxv.V.itv (I.of_bounds (I.Fin 1) I.Pinf) in
               if not (I.is_bot maxpos || I.is_bot off.V.itv
                       || I.is_bot cap.V.itv)
               then begin
                 let end_ = V.add_num off { maxv with V.itv = maxpos } in
                 let excess = tighten env (V.sub_num end_ cap) in
                 if not (I.is_bot (pos_part excess.V.itv)) then
                   emit ctx path
                     (Finding.Recv_overflow { buffer = buf })
                     (Printf.sprintf
                        "recv at offset %s of up to %s bytes into capacity \
                         %s; excess %s" (num_str off) (I.to_string maxpos)
                        (num_str cap) (I.to_string excess.V.itv))
                     (Absint.Recv_fact { off; max = maxv; cap })
               end
           | None -> ());
          let rc_itv =
            let m = I.meet maxv.V.itv I.nat in
            if I.is_bot m then I.const 0 else I.join (I.const 0) m
          in
          let rc_hi_sym =
            match I.lo_int maxv.V.itv with
            | Some l when l >= 0 -> maxv.V.hi_sym
            | _ -> None
          in
          let env = kill_base rc env in
          let rc_val =
            kill_sym_t rc
              (V.Num { V.itv = rc_itv; lo_sym = None; hi_sym = rc_hi_sym;
                       from_atoi = false })
          in
          Some { env with vars = Smap.add rc rc_val env.vars }
      | A.If (c, then_, else_) ->
          let st = exec_block ctx (path @ [ 0 ]) (assume_env env c) then_ in
          let se = exec_block ctx (path @ [ 1 ]) (assume_not_env env c) else_ in
          join_opt st se
      | A.While (c, body) -> exec_while ctx path env c body
      | A.Do_while (body, c) -> exec_do_while ctx path env body c
      | A.Reject _ | A.Return _ -> None)

and fixpoint ctx step env =
  let rec go head round =
    ctx.loop_iterations <- ctx.loop_iterations + 1;
    let grown =
      match step head with None -> head | Some out -> join_env head out
    in
    if env_equal grown head || round >= 64 then head
    else begin
      let next =
        if round >= 2 then begin
          ctx.widenings <- ctx.widenings + 1;
          widen_env head grown
        end
        else grown
      in
      go next (round + 1)
    end
  in
  go env 0

and exec_while ctx path env cond body =
  let saved = ctx.emit in
  ctx.emit <- false;
  let step head =
    exec_block ctx (path @ [ 0 ]) (assume_env head cond) body
  in
  let head = fixpoint ctx step env in
  ctx.emit <- saved;
  if saved then ignore (exec_block ctx (path @ [ 0 ]) (assume_env head cond) body);
  assume_not_env head cond

and exec_do_while ctx path env body cond =
  let saved = ctx.emit in
  ctx.emit <- false;
  let step head =
    match exec_block ctx (path @ [ 0 ]) (Some head) body with
    | None -> None
    | Some out -> assume_env out cond
  in
  let head = fixpoint ctx step env in
  ctx.emit <- saved;
  match exec_block ctx (path @ [ 0 ]) (Some head) body with
  | None -> None
  | Some out -> assume_not_env out cond

(* ---- entry --------------------------------------------------------- *)

let initial_env (config : Absint.config) (f : A.func) =
  let vars =
    List.fold_left
      (fun m p ->
         match p with
         | A.Int_param name ->
             Smap.add name (V.param_int name config.Absint.int_params) m
         | A.Str_param name -> Smap.add name V.str_top m)
      Smap.empty f.A.params
  in
  { vars; bufs = Smap.empty }

let dedupe raws =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (r : Absint.raw) ->
       let k = (r.Absint.path, Finding.kind_name r.Absint.kind) in
       if Hashtbl.mem seen k then false
       else begin
         Hashtbl.add seen k ();
         true
       end)
    raws

let analyze ?(config = Absint.default_config) (f : A.func) : Absint.result =
  let cfg = Cfg.build f in
  let ctx =
    { config; raws = []; emit = true; loop_iterations = 0; widenings = 0 }
  in
  ignore (exec_block ctx [] (Some (initial_env config f)) f.A.body);
  { Absint.cfg;
    raws = dedupe (List.rev ctx.raws);
    loop_iterations = ctx.loop_iterations;
    widenings = ctx.widenings }
