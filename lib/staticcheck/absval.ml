(* Abstract values: an interval plus optional affine bounds relative
   to one function parameter ("zones-lite").  The symbolic bounds are
   what separates ReadPOSTData's && loop (x <= contentLen - 1 at the
   recv) from the || loop (no relation survives the disjunction). *)

type sym = { base : string; off : int }

type num = {
  itv : Interval.t;
  lo_sym : sym option;   (* value >= base + off *)
  hi_sym : sym option;   (* value <= base + off *)
  from_atoi : bool;      (* the value flowed out of a C atoi *)
}

type t =
  | Num of num
  | Str of num           (* a string, abstracted by its length *)

let num ?(lo_sym = None) ?(hi_sym = None) ?(from_atoi = false) itv =
  { itv; lo_sym; hi_sym; from_atoi }

let of_itv itv = Num (num itv)
let str_of_len itv = Str (num itv)
let const n = of_itv (Interval.const n)

let param_int name range =
  Num { itv = range; lo_sym = Some { base = name; off = 0 };
        hi_sym = Some { base = name; off = 0 }; from_atoi = false }

let top_num = num Interval.top
let top = Num top_num
let str_top = Str (num Interval.nat)

let as_num = function Num n -> n | Str _ -> top_num
let as_len = function Str n -> n | Num _ -> num Interval.nat

let is_bot = function Num n | Str n -> Interval.is_bot n.itv

let sym_eq a b =
  match a, b with
  | Some s1, Some s2 -> s1.base = s2.base && s1.off = s2.off
  | None, None -> true
  | _ -> false

let sym_shift k = Option.map (fun s -> { s with off = s.off + k })

(* Join of upper symbolic bounds.  When both sides carry a bound over
   the same parameter, take the looser offset.  When only one side
   does, the resolver lets us *recover* a bound for the sym-less side
   from its concrete interval: x <= h and base >= bl imply
   x <= base + (h - bl).  This is what keeps "x <= contentLen - 1"
   alive through the loop-head join with the entry state x = 0 in the
   ReadPOSTData && fix — the entry state satisfies x <= contentLen + 0
   because contentLen >= 0. *)
let join_hi_sym_r resolve a b =
  match a.hi_sym, b.hi_sym with
  | Some s1, Some s2 when s1.base = s2.base ->
      Some { s1 with off = max s1.off s2.off }
  | (Some s, None | None, Some s) ->
      let symless = if a.hi_sym = None then a else b in
      (match Interval.hi_int symless.itv, Interval.lo_int (resolve s.base) with
       | Some h, Some bl -> Some { s with off = max s.off (h - bl) }
       | _ -> None)
  | _ -> None

let join_lo_sym_r resolve a b =
  match a.lo_sym, b.lo_sym with
  | Some s1, Some s2 when s1.base = s2.base ->
      Some { s1 with off = min s1.off s2.off }
  | (Some s, None | None, Some s) ->
      let symless = if a.lo_sym = None then a else b in
      (match Interval.lo_int symless.itv, Interval.hi_int (resolve s.base) with
       | Some l, Some bh -> Some { s with off = min s.off (l - bh) }
       | _ -> None)
  | _ -> None

let no_resolve (_ : string) = Interval.top

let join_lo_sym a b =
  join_lo_sym_r no_resolve
    { itv = Interval.top; lo_sym = a; hi_sym = None; from_atoi = false }
    { itv = Interval.top; lo_sym = b; hi_sym = None; from_atoi = false }

(* Tighter-of; [None] is the identity. *)
let meet_hi_sym a b =
  match a, b with
  | Some s1, Some s2 when s1.base = s2.base ->
      Some { s1 with off = min s1.off s2.off }
  | Some s, None | None, Some s -> Some s
  | _ -> a

let meet_lo_sym a b =
  match a, b with
  | Some s1, Some s2 when s1.base = s2.base ->
      Some { s1 with off = max s1.off s2.off }
  | Some s, None | None, Some s -> Some s
  | _ -> a

let join_num_r ~resolve a b =
  { itv = Interval.join a.itv b.itv;
    lo_sym = join_lo_sym_r resolve a b;
    hi_sym = join_hi_sym_r resolve a b;
    from_atoi = a.from_atoi || b.from_atoi }

let join_num a b = join_num_r ~resolve:no_resolve a b

let widen_num old next =
  { itv = Interval.widen old.itv next.itv;
    (* a symbolic bound survives widening only if it was already stable *)
    lo_sym = (if sym_eq old.lo_sym next.lo_sym then next.lo_sym else None);
    hi_sym = (if sym_eq old.hi_sym next.hi_sym then next.hi_sym else None);
    from_atoi = old.from_atoi || next.from_atoi }

let join_r ~resolve a b =
  match a, b with
  | Num x, Num y -> Num (join_num_r ~resolve x y)
  | Str x, Str y -> Str (join_num_r ~resolve x y)
  | x, y -> if is_bot x then y else if is_bot y then x else top

let join a b = join_r ~resolve:no_resolve a b

let widen a b =
  match a, b with
  | Num x, Num y -> Num (widen_num x y)
  | Str x, Str y -> Str (widen_num x y)
  | x, y -> if is_bot x then y else if is_bot y then x else top

let equal_num a b =
  Interval.equal a.itv b.itv && sym_eq a.lo_sym b.lo_sym
  && sym_eq a.hi_sym b.hi_sym && a.from_atoi = b.from_atoi

let equal a b =
  match a, b with
  | Num x, Num y | Str x, Str y -> equal_num x y
  | _ -> false

(* ---- arithmetic --------------------------------------------------- *)

(* a + b: a symbolic bound shifts by the other side's finite bound *)
let add_num a b =
  let hi_sym =
    match a.hi_sym, Interval.hi_int b.itv with
    | Some s, Some k -> Some { s with off = s.off + k }
    | _ -> (
        match b.hi_sym, Interval.hi_int a.itv with
        | Some s, Some k -> Some { s with off = s.off + k }
        | _ -> None)
  in
  let lo_sym =
    match a.lo_sym, Interval.lo_int b.itv with
    | Some s, Some k -> Some { s with off = s.off + k }
    | _ -> (
        match b.lo_sym, Interval.lo_int a.itv with
        | Some s, Some k -> Some { s with off = s.off + k }
        | _ -> None)
  in
  { itv = Interval.add a.itv b.itv; lo_sym; hi_sym;
    from_atoi = a.from_atoi || b.from_atoi }

let sub_num a b =
  (* cancellation: a <= p + c and b >= p + c'  ==>  a - b <= c - c' *)
  let cancel_hi =
    match a.hi_sym, b.lo_sym with
    | Some s1, Some s2 when s1.base = s2.base -> Some (s1.off - s2.off)
    | _ -> None
  in
  let cancel_lo =
    match a.lo_sym, b.hi_sym with
    | Some s1, Some s2 when s1.base = s2.base -> Some (s1.off - s2.off)
    | _ -> None
  in
  let base = Interval.sub a.itv b.itv in
  let itv =
    let with_hi =
      match cancel_hi with
      | Some c -> Interval.clamp_hi c base
      | None -> base
    in
    match cancel_lo with
    | Some c -> Interval.clamp_lo c with_hi
    | None -> with_hi
  in
  let hi_sym =
    match a.hi_sym, Interval.lo_int b.itv with
    | Some s, Some k -> Some { s with off = s.off - k }
    | _ -> None
  in
  let lo_sym =
    match a.lo_sym, Interval.hi_int b.itv with
    | Some s, Some k -> Some { s with off = s.off - k }
    | _ -> None
  in
  { itv; lo_sym; hi_sym; from_atoi = a.from_atoi || b.from_atoi }

let mul_num a b =
  { itv = Interval.mul a.itv b.itv; lo_sym = None; hi_sym = None;
    from_atoi = a.from_atoi || b.from_atoi }

let min_num a b =
  { itv = Interval.min_ a.itv b.itv;
    hi_sym = (match a.hi_sym with Some s -> Some s | None -> b.hi_sym);
    lo_sym = join_lo_sym a.lo_sym b.lo_sym;
    from_atoi = a.from_atoi || b.from_atoi }

let meet_num a b =
  { itv = Interval.meet a.itv b.itv;
    lo_sym = meet_lo_sym a.lo_sym b.lo_sym;
    hi_sym = meet_hi_sym a.hi_sym b.hi_sym;
    from_atoi = a.from_atoi || b.from_atoi }

(* ---- rendering ---------------------------------------------------- *)

let pp_sym ppf { base; off } =
  if off = 0 then Format.pp_print_string ppf base
  else if off > 0 then Format.fprintf ppf "%s+%d" base off
  else Format.fprintf ppf "%s%d" base off

let pp_num ppf n =
  Interval.pp ppf n.itv;
  (match n.lo_sym with
   | Some s -> Format.fprintf ppf " >=%a" pp_sym s
   | None -> ());
  (match n.hi_sym with
   | Some s -> Format.fprintf ppf " <=%a" pp_sym s
   | None -> ());
  if n.from_atoi then Format.pp_print_string ppf " (atoi)"

let pp ppf = function
  | Num n -> pp_num ppf n
  | Str n -> Format.fprintf ppf "str(len=%a)" pp_num n

let to_string t = Format.asprintf "%a" pp t
