type t = float array

let create n = Array.make n 0.0

let copy = Array.copy

let check_same_length name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let dot x y =
  check_same_length "dot" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  !acc

let norm2 x = sqrt (dot x x)

let scale a x = Array.map (fun v -> a *. v) x

let add x y =
  check_same_length "add" x y;
  Array.init (Array.length x) (fun i -> x.(i) +. y.(i))

let sub x y =
  check_same_length "sub" x y;
  Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let axpy a x y =
  check_same_length "axpy" x y;
  for i = 0 to Array.length x - 1 do
    Array.unsafe_set y i ((a *. Array.unsafe_get x i) +. Array.unsafe_get y i)
  done

let normalize x =
  let n = norm2 x in
  if n < 1e-300 then invalid_arg "Vec.normalize: zero vector";
  scale (1.0 /. n) x

let dist_inf x y =
  check_same_length "dist_inf" x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := Float.max !acc (Float.abs (x.(i) -. y.(i)))
  done;
  !acc
