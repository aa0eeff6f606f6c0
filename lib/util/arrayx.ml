let float_range ~start ~stop ~count =
  if count < 2 then invalid_arg "Arrayx.float_range: count must be >= 2";
  let step = (stop -. start) /. float_of_int (count - 1) in
  Array.init count (fun i -> start +. (step *. float_of_int i))

let arg_extremum better a =
  if Array.length a = 0 then invalid_arg "Arrayx: empty array";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if better a.(i) a.(!best) then best := i
  done;
  !best

let argmax a = arg_extremum (fun x y -> x > y) a

let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  if Array.length a = 0 then invalid_arg "Arrayx.mean: empty array";
  sum a /. float_of_int (Array.length a)

let sort_desc_with_perm a =
  let n = Array.length a in
  let perm = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare a.(j) a.(i)) perm;
  let sorted = Array.map (fun i -> a.(i)) perm in
  (sorted, perm)
