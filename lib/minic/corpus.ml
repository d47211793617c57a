open Ast

(* ---- Sendmail tTflag ---------------------------------------------- *)

(* 101 elements: valid indices 0..100. *)
let tTvect_size = 101

let tTflag_arrays = [ ("tTvect", tTvect_size) ]

let tTflag_body ~check =
  [ Decl_int ("x", Atoi (Var "str_x"));
    Decl_int ("i", Atoi (Var "str_i"));
    If (check, [ Reject "debug level out of range" ], []);
    Array_store ("tTvect", Var "x", Var "i");
    Return (Int_lit 0) ]

let tTflag_vulnerable =
  { name = "tTflag";
    params = [ Str_param "str_x"; Str_param "str_i" ];
    body = tTflag_body ~check:(Bin (Gt, Var "x", Int_lit 100)) }

let tTflag_fixed =
  { name = "tTflag_fixed";
    params = [ Str_param "str_x"; Str_param "str_i" ];
    body =
      tTflag_body
        ~check:
          (Bin (Or, Bin (Lt, Var "x", Int_lit 0), Bin (Gt, Var "x", Int_lit 100))) }

let tTflag_spec = Pfsm.Predicate.between Pfsm.Predicate.Self ~low:0 ~high:100

let tTflag_object = "x"

let run_tTflag f ~str_x ~str_i =
  Interp.run ~arrays:tTflag_arrays f
    ~args:[ Interp.Vstr str_x; Interp.Vstr str_i ]

(* ---- GHTTPD Log ---------------------------------------------------- *)

let log_buffer_size = 200

let log_body ~checks =
  checks
  @ [ Decl_buf ("buf", log_buffer_size);
      Strcpy ("buf", Var "request");
      Return (Int_lit 0) ]

let log_vulnerable =
  { name = "Log"; params = [ Str_param "request" ]; body = log_body ~checks:[] }

let log_fixed =
  { name = "Log_fixed";
    params = [ Str_param "request" ];
    body =
      log_body
        ~checks:
          [ If
              ( Bin (Gt, Strlen (Var "request"), Int_lit (log_buffer_size - 1)),
                [ Reject "request too long" ],
                [] ) ] }

let log_off_by_one =
  { name = "Log_off_by_one";
    params = [ Str_param "request" ];
    body =
      log_body
        ~checks:
          [ If
              ( Bin (Gt, Strlen (Var "request"), Int_lit log_buffer_size),
                [ Reject "request too long" ],
                [] ) ] }

let log_spec =
  Pfsm.Predicate.Cmp
    (Pfsm.Predicate.Le, Pfsm.Predicate.Length Pfsm.Predicate.Self,
     Pfsm.Predicate.Lit (Pfsm.Value.Int (log_buffer_size - 1)))

let log_object = "request"

let run_log f ~request = Interp.run f ~args:[ Interp.Vstr request ]

(* ---- NULL HTTPD ReadPOSTData --------------------------------------- *)

let read_post_data_body ~fixed =
  let rc_full = Bin (Eq, Var "rc", Int_lit 1024) in
  let more_declared = Bin (Lt, Var "x", Var "contentLen") in
  let continue_cond =
    if fixed then Bin (And, rc_full, more_declared)
    else Bin (Or, rc_full, more_declared)
  in
  [ Decl_buf_dyn ("PostData", Bin (Add, Var "contentLen", Int_lit 1024));
    Decl_int ("x", Int_lit 0);
    Decl_int ("rc", Int_lit 0);
    Do_while
      ( [ Recv_into ("rc", "PostData", Var "x", Int_lit 1024);
          Assign ("x", Bin (Add, Var "x", Var "rc")) ],
        continue_cond );
    Return (Var "x") ]

let read_post_data_buggy =
  { name = "ReadPOSTData";
    params = [ Int_param "contentLen" ];
    body = read_post_data_body ~fixed:false }

let read_post_data_fixed =
  { name = "ReadPOSTData_fixed";
    params = [ Int_param "contentLen" ];
    body = read_post_data_body ~fixed:true }

let run_read_post_data f ~content_len ~body =
  Interp.run ~socket:body f ~args:[ Interp.Vint content_len ]

let all =
  [ ("tTflag (vulnerable)", tTflag_vulnerable);
    ("tTflag (fixed)", tTflag_fixed);
    ("Log (vulnerable)", log_vulnerable);
    ("Log (fixed)", log_fixed);
    ("Log (off-by-one fix)", log_off_by_one);
    ("ReadPOSTData (|| loop, #6255)", read_post_data_buggy);
    ("ReadPOSTData (&& fix)", read_post_data_fixed) ]
