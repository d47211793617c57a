(* The splitmix64 state after [k] draws is [seed + k * golden] modulo
   2^64, so the [k]-th draw is a pure function of the seed and [k]
   ([nth]), and the generator keeps the seed and the draw count as
   plain ints: an [int64] that never leaves [nth] stays unboxed, and a
   draw allocates nothing.  A mutable [int64] field would box a fresh
   state on every draw.  The draws are inlined, so a constant bound is
   a constant [mod]. *)
type t = { seed : int; mutable draws : int }

let create ~seed = { seed; draws = 0 }

let golden = 0x9E3779B97F4A7C15L

let[@inline] nth ~seed k =
  let z = Int64.add (Int64.of_int seed) (Int64.mul golden (Int64.of_int k)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)

let[@inline] next t =
  t.draws <- t.draws + 1;
  nth ~seed:t.seed t.draws

let[@inline] below t bound =
  if bound <= 0 then invalid_arg "Prng.below: bound must be positive";
  next t mod bound

let[@inline] in_range t ~low ~high =
  if high < low then invalid_arg "Prng.in_range: empty range";
  low + below t (high - low + 1)

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(below t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
