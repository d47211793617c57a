type danger =
  | Store_to of string
  | Copy_to of string

type site = {
  danger : danger;
  guard : Ast.expr;
  operand : Ast.expr;
}

let conj guards =
  match guards with
  | [] -> Ast.Int_lit 1
  | g :: rest -> List.fold_left (fun acc g' -> Ast.Bin (Ast.And, acc, g')) g rest

let rec expr_vars acc (e : Ast.expr) =
  match e with
  | Ast.Var v -> v :: acc
  | Ast.Int_lit _ | Ast.Str_lit _ -> acc
  | Ast.Bin (_, a, b) -> expr_vars (expr_vars acc a) b
  | Ast.Not e | Ast.Atoi e | Ast.Strlen e -> expr_vars acc e

let mentions v e = List.mem v (expr_vars [] e)

(* Variables written anywhere in a statement list (including nested). *)
let rec assigned_in stmts =
  List.concat_map
    (fun (stmt : Ast.stmt) ->
       match stmt with
       | Ast.Decl_int (v, _) | Ast.Assign (v, _) -> [ v ]
       | Ast.Recv_into (rc, _, _, _) -> [ rc ]
       | Ast.If (_, a, b) -> assigned_in a @ assigned_in b
       | Ast.While (_, b) | Ast.Do_while (b, _) -> assigned_in b
       | Ast.Decl_buf _ | Ast.Decl_buf_dyn _ | Ast.Array_store _
       | Ast.Strcpy _ | Ast.Strncpy _ | Ast.Reject _ | Ast.Return _ -> [])
    stmts

(* A collected guard only keeps describing the state while the
   variables it mentions are untouched; a write in between invalidates
   the conjunct (check-then-clobber would otherwise smuggle a stale
   check into the path condition). *)
let drop_clobbered vs guards =
  List.filter (fun g -> not (List.exists (fun v -> mentions v g) vs)) guards

(* Does executing this statement list always leave the function? *)
let rec always_exits stmts =
  List.exists
    (fun (stmt : Ast.stmt) ->
       match stmt with
       | Ast.Reject _ | Ast.Return _ -> true
       | Ast.If (_, a, b) -> always_exits a && always_exits b
       | Ast.Decl_int _ | Ast.Decl_buf _ | Ast.Decl_buf_dyn _ | Ast.Assign _
       | Ast.Array_store _ | Ast.Strcpy _ | Ast.Strncpy _ | Ast.Recv_into _
       | Ast.While _ | Ast.Do_while _ -> false)
    stmts

let dangerous_sites (f : Ast.func) =
  let sites = ref [] in
  let emit danger operand guards =
    sites := { danger; guard = conj (List.rev guards); operand } :: !sites
  in
  let rec walk guards stmts =
    match stmts with
    | [] -> ()
    | (stmt : Ast.stmt) :: rest ->
        let continue_with guards = walk guards rest in
        (match stmt with
         | Ast.Array_store (array, idx_e, _) ->
             emit (Store_to array) idx_e guards;
             continue_with guards
         | Ast.Strcpy (buffer, src) | Ast.Strncpy (buffer, src, _) ->
             emit (Copy_to buffer) src guards;
             continue_with guards
         | Ast.Recv_into (rc, buffer, off_e, _) ->
             emit (Copy_to buffer) off_e guards;
             (* the call writes [rc] *)
             continue_with (drop_clobbered [ rc ] guards)
         | Ast.If (cond, then_, else_) ->
             walk (cond :: guards) then_;
             walk (Ast.Not cond :: guards) else_;
             (* Code after the If runs under the negation of any
                branch condition whose body always exits — and only
                the conjuncts no fall-through branch clobbered. *)
             let fall_assigns =
               (if always_exits then_ then [] else assigned_in then_)
               @ (if always_exits else_ then [] else assigned_in else_)
             in
             let after =
               (if always_exits then_ then
                  drop_clobbered fall_assigns [ Ast.Not cond ]
                else [])
               @ (if always_exits else_ then
                    drop_clobbered fall_assigns [ cond ]
                  else [])
               @ drop_clobbered fall_assigns guards
             in
             if not (always_exits then_ && always_exits else_) then
               walk after rest
         | Ast.While (cond, body) ->
             (* from iteration two on, guards over body-assigned
                variables are stale — drop them before entering *)
             let inner = drop_clobbered (assigned_in body) guards in
             walk (cond :: inner) body;
             continue_with (Ast.Not cond :: inner)
         | Ast.Do_while (body, cond) ->
             (* the first iteration runs unconditionally, but later
                ones see the body's writes; keep only the stable part *)
             let inner = drop_clobbered (assigned_in body) guards in
             walk inner body;
             continue_with (Ast.Not cond :: inner)
         | Ast.Reject _ | Ast.Return _ -> ()   (* unreachable afterwards *)
         | Ast.Decl_int (v, _) | Ast.Assign (v, _) ->
             continue_with (drop_clobbered [ v ] guards)
         | Ast.Decl_buf _ | Ast.Decl_buf_dyn _ ->
             continue_with guards)
  in
  walk [] f.Ast.body;
  List.rev !sites

(* ---- guard -> predicate ------------------------------------------- *)

let cmp_of = function
  | Ast.Lt -> Some Pfsm.Predicate.Lt
  | Ast.Le -> Some Pfsm.Predicate.Le
  | Ast.Gt -> Some Pfsm.Predicate.Gt
  | Ast.Ge -> Some Pfsm.Predicate.Ge
  | Ast.Eq -> Some Pfsm.Predicate.Eq
  | Ast.Ne -> Some Pfsm.Predicate.Ne
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.And | Ast.Or -> None

(* Terms: the object variable itself, strlen of it, and integer
   literals. *)
let rec translate_term ~object_var (e : Ast.expr) =
  match e with
  | Ast.Var v when v = object_var -> Some Pfsm.Predicate.Self
  | Ast.Int_lit n -> Some (Pfsm.Predicate.Lit (Pfsm.Value.Int n))
  | Ast.Strlen inner -> (
      match translate_term ~object_var inner with
      | Some t -> Some (Pfsm.Predicate.Length t)
      | None -> None)
  | Ast.Atoi inner -> translate_term ~object_var inner
      (* atoi(object) as a term: the predicate then speaks about the
         converted value; callers designate which view they model. *)
  | Ast.Str_lit _ | Ast.Var _ | Ast.Bin _ | Ast.Not _ -> None

(* Render a guard as a predicate over [Self] (the named variable's
   value); [None] when the expression leaves the supported fragment
   (comparisons, boolean connectives, [strlen] of the object, integer
   literals). *)
let rec translate ~object_var (e : Ast.expr) =
  match e with
  | Ast.Int_lit 0 -> Some Pfsm.Predicate.False
  | Ast.Int_lit _ -> Some Pfsm.Predicate.True
  | Ast.Not inner -> (
      match translate ~object_var inner with
      | Some p -> Some (Pfsm.Predicate.Not p)
      | None -> None)
  | Ast.Bin (Ast.And, a, b) -> connective ~object_var a b (fun p q -> Pfsm.Predicate.And (p, q))
  | Ast.Bin (Ast.Or, a, b) -> connective ~object_var a b (fun p q -> Pfsm.Predicate.Or (p, q))
  | Ast.Bin (op, a, b) -> (
      match cmp_of op, translate_term ~object_var a, translate_term ~object_var b with
      | Some cmp, Some ta, Some tb -> Some (Pfsm.Predicate.Cmp (cmp, ta, tb))
      | _, _, _ -> None)
  | Ast.Str_lit _ | Ast.Var _ | Ast.Atoi _ | Ast.Strlen _ -> None

and connective ~object_var a b build =
  match translate ~object_var a, translate ~object_var b with
  | Some p, Some q -> Some (build p q)
  | _, _ -> None

let impl_predicate_at ~object_var site =
  match translate ~object_var site.guard with
  | Some p -> Some (Pfsm.Simplify.simplify p)
  | None -> None

let impl_predicate f ~object_var =
  match dangerous_sites f with
  | [] -> None
  | site :: _ -> impl_predicate_at ~object_var site

let site_relevant ~object_var site = mentions object_var site.operand

let weakest_predicate f ~object_var =
  match List.filter (site_relevant ~object_var) (dangerous_sites f) with
  | [] -> None
  | sites ->
      let preds = List.map (impl_predicate_at ~object_var) sites in
      if List.exists Option.is_none preds then None
      else
        Some
          (Pfsm.Simplify.simplify
             (Pfsm.Predicate.disj (List.filter_map Fun.id preds)))

let pfsm_of ~name ~kind ~activity ~spec ~object_var f =
  match impl_predicate f ~object_var with
  | Some impl -> Pfsm.Primitive.make ~name ~kind ~activity ~spec ~impl
  | None ->
      invalid_arg
        (Printf.sprintf "Extract.pfsm_of: no extractable guard in %s" f.Ast.name)
