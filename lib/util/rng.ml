type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let copy t = { state = t.state }

(* SplitMix64 step (Steele, Lea & Flood, OOPSLA'14). *)
let next_raw t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 = next_raw

let split t = { state = next_raw t }

let bits t = Int64.to_int (Int64.shift_right_logical (next_raw t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits t in
    let v = r mod n in
    if r - v > (max_int - n) + 1 then draw () else v
  in
  draw ()

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  x *. (r /. 9007199254740992.0 (* 2^53 *))

let exponential t ~mean =
  let u = ref (float t 1.0) in
  while !u = 0.0 do u := float t 1.0 done;
  -. mean *. log !u

let gaussian t =
  let u1 = ref (float t 1.0) in
  while !u1 = 0.0 do u1 := float t 1.0 done;
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let lognormal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
