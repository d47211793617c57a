(** A miniature C subset — just enough to write the paper's vulnerable
    functions as {e code} rather than hand-built models, so that the
    implementation predicate can be {e extracted} from the source
    (the automatic-tool direction of the paper's conclusion).

    Values are integers and strings; storage is integer globals,
    global [int] arrays, and fixed-size [char] stack buffers. *)

type binop =
  | Add | Sub | Mul
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type expr =
  | Int_lit of int
  | Str_lit of string
  | Var of string               (** integer variable or string parameter *)
  | Bin of binop * expr * expr
  | Not of expr
  | Atoi of expr                (** C atoi: 32-bit wrap *)
  | Strlen of expr

type stmt =
  | Decl_int of string * expr
  | Decl_buf of string * int    (** [char name\[n\]] on the stack *)
  | Decl_buf_dyn of string * expr
      (** [char name\[e\]] — size computed at function entry from the
          parameters (models calloc/alloca-sized buffers) *)
  | Assign of string * expr
  | Array_store of string * expr * expr
      (** [name\[idx\] = v] into a global int array *)
  | Strcpy of string * expr     (** [strcpy(buf, e)] — unbounded! *)
  | Strncpy of string * expr * expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
      (** C's [do {...} while (cond);] — the ReadPOSTData loop shape *)
  | Recv_into of string * string * expr * expr
      (** [rc = recv(sock, buf + off, max)]: read up to [max] bytes
          from the implicit socket into [buf + off]; the count lands
          in the first variable.  The copy is bounded by [max], never
          by the buffer — exactly like the real call. *)
  | Reject of string            (** early error return — the check firing *)
  | Return of expr

type param = Int_param of string | Str_param of string

type func = {
  name : string;
  params : param list;
  body : stmt list;
}

val pp_stmt : indent:int -> Format.formatter -> stmt -> unit

val pp_func : Format.formatter -> func -> unit
(** Renders as C-ish source. *)

val func_to_string : func -> string
