type t = { mutable left : int; mutable used : int; mutable dead : bool }

let of_fuel n = { left = max 0 n; used = 0; dead = false }

let spend t n =
  if n < 0 then invalid_arg "Deadline.spend: negative amount";
  if t.dead || t.left < n then begin
    t.dead <- true;
    false
  end
  else begin
    t.left <- t.left - n;
    t.used <- t.used + n;
    true
  end

let used t = t.used
