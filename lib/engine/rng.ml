type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: n is tiny compared to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let float t x =
  (* 53 random bits mapped to [0, 1). *)
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bits /. 9007199254740992.0 *. x

let uniform t lo hi = lo +. float t (hi -. lo)
let bool t = Int64.logand (bits64 t) 1L = 1L
let chance t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u
