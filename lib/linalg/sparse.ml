type t = {
  n : int;
  row_start : int array; (* length n + 1 *)
  cols : int array;
  values : float array;
}

let of_triplets ~n entries =
  if n < 0 then invalid_arg "Sparse.of_triplets: negative dimension";
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Sparse.of_triplets: index out of range")
    entries;
  (* combine duplicates *)
  let tbl = Hashtbl.create (List.length entries) in
  List.iter
    (fun (i, j, v) ->
      let key = (i, j) in
      Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key)))
    entries;
  let per_row = Array.make n [] in
  Hashtbl.iter (fun (i, j) v -> if v <> 0.0 then per_row.(i) <- (j, v) :: per_row.(i)) tbl;
  let row_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_start.(i + 1) <- row_start.(i) + List.length per_row.(i)
  done;
  let nnz = row_start.(n) in
  let cols = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  for i = 0 to n - 1 do
    let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) per_row.(i) in
    List.iteri
      (fun k (j, v) ->
        cols.(row_start.(i) + k) <- j;
        values.(row_start.(i) + k) <- v)
      sorted
  done;
  { n; row_start; cols; values }

let dim t = t.n

let mul_vec t x =
  if Array.length x <> t.n then invalid_arg "Sparse.mul_vec: length mismatch";
  let y = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let acc = ref 0.0 in
    for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get t.values k
           *. Array.unsafe_get x (Array.unsafe_get t.cols k))
    done;
    y.(i) <- !acc
  done;
  y

let diagonal t =
  let d = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      if t.cols.(k) = i then d.(i) <- t.values.(k)
    done
  done;
  d

let to_dense t =
  let m = Mat.create t.n t.n in
  for i = 0 to t.n - 1 do
    for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      Mat.set m i t.cols.(k) t.values.(k)
    done
  done;
  m

let is_symmetric ?(tol = 1e-12) t =
  let get i j =
    let rec scan k =
      if k >= t.row_start.(i + 1) then 0.0
      else if t.cols.(k) = j then t.values.(k)
      else scan (k + 1)
    in
    scan t.row_start.(i)
  in
  let ok = ref true in
  (try
     for i = 0 to t.n - 1 do
       for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
         let j = t.cols.(k) in
         if Float.abs (t.values.(k) -. get j i) > tol then begin
           ok := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !ok
