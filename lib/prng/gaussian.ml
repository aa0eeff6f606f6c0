(* Marsaglia polar method. One spare value could be cached per pair, but a
   stateless draw keeps the generator stream position predictable enough for
   testing; the pair's second value is simply used to fill arrays faster.

   An accepted pair is written into a flat float record rather than
   returned as a tuple, so filling an array or a matrix allocates no pair
   per draw. *)

type pair = { mutable x : float; mutable y : float }

let rec polar rng p =
  let u = (2.0 *. Rng.uniform rng) -. 1.0 in
  let v = (2.0 *. Rng.uniform rng) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then polar rng p
  else begin
    let m = sqrt (-2.0 *. log s /. s) in
    p.x <- u *. m;
    p.y <- v *. m
  end

let draw rng =
  let p = { x = 0.0; y = 0.0 } in
  polar rng p;
  p.x

let fill rng a =
  let n = Array.length a in
  let p = { x = 0.0; y = 0.0 } in
  let i = ref 0 in
  while !i < n do
    polar rng p;
    Array.unsafe_set a !i p.x;
    if !i + 1 < n then Array.unsafe_set a (!i + 1) p.y;
    i := !i + 2
  done

let vector rng n =
  let a = Array.make n 0.0 in
  fill rng a;
  a

let matrix rng ~rows ~cols =
  let m = Linalg.Mat.create rows cols in
  let buf = Array.make cols 0.0 in
  for i = 0 to rows - 1 do
    fill rng buf;
    Linalg.Mat.set_row m i buf
  done;
  m
