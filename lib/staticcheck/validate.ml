module A = Minic.Ast
module I = Interval
module V = Absval
module P = Pfsm.Predicate

type corroboration =
  | Pfsm_refuted of { witness : Pfsm.Value.t; candidates : int }
  | Pfsm_verified of { candidates : int }
  | Pfsm_inapplicable of string

let corroboration_to_string = function
  | Pfsm_refuted { witness; candidates } ->
      let w = Format.asprintf "%a" Pfsm.Value.pp witness in
      let w =
        if String.length w <= 40 then w
        else Printf.sprintf "%s... (%d chars)" (String.sub w 0 24) (String.length w)
      in
      Printf.sprintf "refuted (witness %s, %d candidates)" w candidates
  | Pfsm_verified { candidates } ->
      Printf.sprintf "verified on %d candidates (tension with the finding)"
        candidates
  | Pfsm_inapplicable reason -> "inapplicable: " ^ reason

(* ---- interpreter replay -------------------------------------------- *)

let default_array_count = 64

let stored_arrays (f : A.func) =
  let acc = ref [] in
  let rec go (s : A.stmt) =
    match s with
    | A.Array_store (a, _, _) -> if not (List.mem a !acc) then acc := a :: !acc
    | A.If (_, t, e) ->
        List.iter go t;
        List.iter go e
    | A.While (_, b) | A.Do_while (b, _) -> List.iter go b
    | _ -> ()
  in
  List.iter go f.A.body;
  List.rev !acc

(* Arrays for the replay: the configured ones, plus a default
   registration for any stored-to array the config does not know —
   without it the interpreter would reject before reaching the store. *)
let replay_arrays ~(config : Absint.config) f =
  config.Absint.arrays
  @ List.filter_map
      (fun a ->
         if List.mem_assoc a config.Absint.arrays then None
         else Some (a, default_array_count))
      (stored_arrays f)

(* A candidate that hits a simulated condition (an injected socket
   reset, an exhausted stack) is no witness, and the next one is
   tried.  Any other exception is a bug in the interpreter or the
   machine and propagates: swallowing it would quietly turn a
   confirmed finding into [Unconfirmed]. *)
let replay ~config (f : A.func) (raw : Absint.raw) : Finding.status =
  let arrays = replay_arrays ~config f in
  let try_one (args, socket) =
    match Minic.Interp.run ~arrays ~socket f ~args with
    | outcome when Finding.outcome_matches raw.Absint.kind outcome ->
        Some { Finding.args; socket; arrays; outcome }
    | _ -> None
    | exception Fault.Condition.Simulated _ -> None
  in
  match List.find_map try_one (Concretize.candidates f raw) with
  | Some w -> Finding.Confirmed w
  | None -> Finding.Unconfirmed

(* ---- pFSM corroboration -------------------------------------------- *)

(* The variable a site's operand checks: the object the pFSM is about. *)
let rec object_of (e : A.expr) =
  match e with
  | A.Var v -> Some v
  | A.Atoi inner | A.Strlen inner -> object_of inner
  | _ -> None

let site_for ~stmt (f : A.func) =
  let open Minic.Extract in
  let wanted =
    match (stmt : A.stmt) with
    | A.Array_store (a, idx, _) -> Some (Store_to a, idx)
    | A.Strcpy (b, src) | A.Strncpy (b, src, _) -> Some (Copy_to b, src)
    | A.Recv_into (_, b, off, _) -> Some (Copy_to b, off)
    | _ -> None
  in
  match wanted with
  | None -> None
  | Some (danger, operand) ->
      List.find_opt
        (fun s -> s.danger = danger && s.operand = operand)
        (dangerous_sites f)

let verify_outcome primitive domain =
  match Pfsm.Verify.verify primitive domain with
  | Pfsm.Verify.Refuted { witness; candidates_tried } ->
      Pfsm_refuted { witness; candidates = candidates_tried }
  | Pfsm.Verify.Verified { candidates } -> Pfsm_verified { candidates }
  | Pfsm.Verify.Budget_exhausted { tried; total } ->
      Pfsm_inapplicable (Printf.sprintf "budget exhausted (%d/%d)" tried total)
  | Pfsm.Verify.Domain_too_large { bound } ->
      Pfsm_inapplicable (Printf.sprintf "domain beyond %d" bound)

let corroborate ~cfg (f : A.func) (raw : Absint.raw) =
  match Cfg.stmt_at cfg raw.Absint.path with
  | None -> Pfsm_inapplicable "no statement at path"
  | Some stmt -> (
      match site_for ~stmt f with
      | None -> Pfsm_inapplicable "site not in the extractable fragment"
      | Some site -> (
          match object_of site.Minic.Extract.operand with
          | None -> Pfsm_inapplicable "operand is not a variable"
          | Some object_var -> (
              match Minic.Extract.impl_predicate_at ~object_var site with
              | None -> Pfsm_inapplicable "guard outside the predicate fragment"
              | Some impl -> (
                  let spec_domain =
                    match raw.Absint.fact with
                    | Absint.Index_fact { count = Some c; _ } ->
                        Some
                          ( P.between P.Self ~low:0 ~high:(c - 1),
                            Pfsm.Verify.Int_range
                              { low = -256; high = c + 256 } )
                    | Absint.Index_fact { count = None; _ } ->
                        Some
                          ( P.Cmp (P.Ge, P.Self, P.Lit (Pfsm.Value.Int 0)),
                            Pfsm.Verify.Int_range { low = -256; high = 256 } )
                    | Absint.Copy_fact { cap; _ } -> (
                        match I.lo_int cap.V.itv with
                        | Some c when c > 0 ->
                            let lens =
                              List.sort_uniq compare
                                [ 0; c - 1; c; c + 1; c + 16 ]
                            in
                            Some
                              ( P.Cmp
                                  ( P.Le, P.Length P.Self,
                                    P.Lit (Pfsm.Value.Int (c - 1)) ),
                                Pfsm.Verify.Strings
                                  (List.filter_map
                                     (fun l ->
                                        if l >= 0 then Some (String.make l 'a')
                                        else None)
                                     lens) )
                        | _ -> None)
                    | Absint.Recv_fact { max; cap; _ } -> (
                        match I.lo_int cap.V.itv, I.hi_int max.V.itv with
                        | Some c, Some m when c > 0 && m > 0 ->
                            (* with the smallest admissible capacity,
                               any offset above c - m overflows *)
                            Some
                              ( P.between P.Self ~low:0 ~high:(c - m),
                                Pfsm.Verify.Int_range { low = 0; high = c } )
                        | _ -> None)
                  in
                  match spec_domain with
                  | None -> Pfsm_inapplicable "no finite specification domain"
                  | Some (spec, domain) ->
                      let primitive =
                        Pfsm.Primitive.make
                          ~name:("lint:" ^ Finding.kind_name raw.Absint.kind)
                          ~kind:Pfsm.Taxonomy.Content_attribute_check
                          ~activity:
                            (Printf.sprintf "%s at %s" f.A.name
                               (Cfg.path_to_string cfg raw.Absint.path))
                          ~spec ~impl
                      in
                      verify_outcome primitive domain))))

(* ---- assembly ------------------------------------------------------ *)

let finding ~config ~cfg (f : A.func) (raw : Absint.raw) : Finding.t =
  let status = replay ~config f raw in
  let pfsm = Some (corroboration_to_string (corroborate ~cfg f raw)) in
  { Finding.func = f.A.name;
    kind = raw.Absint.kind;
    path = raw.Absint.path;
    site = Cfg.path_to_string cfg raw.Absint.path;
    detail = raw.Absint.detail;
    status;
    pfsm }
