type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : ba }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
  Bigarray.Array1.fill data 0.0;
  { rows; cols; data }

let rows m = m.rows
let cols m = m.cols

let check_bounds m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Mat: index (%d, %d) out of bounds for %dx%d" i j m.rows m.cols)

let get m i j =
  check_bounds m i j;
  Bigarray.Array1.unsafe_get m.data ((i * m.cols) + j)

let set m i j v =
  check_bounds m i j;
  Bigarray.Array1.unsafe_set m.data ((i * m.cols) + j) v

let[@inline] unsafe_get m i j = Bigarray.Array1.unsafe_get m.data ((i * m.cols) + j)
let[@inline] unsafe_set m i j v = Bigarray.Array1.unsafe_set m.data ((i * m.cols) + j) v

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      unsafe_set m i j (f i j)
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let copy m =
  let m' = create m.rows m.cols in
  Bigarray.Array1.blit m.data m'.data;
  m'

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then create 0 0
  else begin
    let cols = Array.length a.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows")
      a;
    init rows cols (fun i j -> a.(i).(j))
  end

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> unsafe_get m i j))

let find_non_finite m =
  let n = m.rows * m.cols in
  let rec scan idx =
    if idx >= n then None
    else if Float.is_finite (Bigarray.Array1.unsafe_get m.data idx) then scan (idx + 1)
    else Some (idx / m.cols, idx mod m.cols)
  in
  if m.cols = 0 then None else scan 0

let is_finite m = find_non_finite m = None

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Mat.row: out of bounds";
  Array.init m.cols (fun j -> unsafe_get m i j)

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Mat.col: out of bounds";
  Array.init m.rows (fun i -> unsafe_get m i j)

let set_row m i r =
  if i < 0 || i >= m.rows then invalid_arg "Mat.set_row: out of bounds";
  if Array.length r <> m.cols then invalid_arg "Mat.set_row: length mismatch";
  for j = 0 to m.cols - 1 do
    unsafe_set m i j (Array.unsafe_get r j)
  done

let transpose m = init m.cols m.rows (fun i j -> unsafe_get m j i)

let check_same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch" name)

let add a b =
  check_same_shape "add" a b;
  init a.rows a.cols (fun i j -> unsafe_get a i j +. unsafe_get b i j)

let sub a b =
  check_same_shape "sub" a b;
  init a.rows a.cols (fun i j -> unsafe_get a i j -. unsafe_get b i j)

let scale s m = init m.rows m.cols (fun i j -> s *. unsafe_get m i j)

(* Row blocks above this many flops are fanned out over the domain pool;
   each output row is produced by exactly one domain, so the result is
   bit-identical to the sequential loop for any pool size. *)
let parallel_flops = 1 lsl 20

(* Products below this many multiply-adds only bump the flop counter;
   above it they also get their own span, so traces stay readable while
   the covariance-sized products remain visible. *)
let traced_work = 4_000_000

let traced_mul name ~m ~n ~k f =
  let work = m * n * k in
  Util.Trace.add Util.Trace.matmul_flops (2 * work);
  if work >= traced_work && Util.Trace.enabled () then
    Util.Trace.with_span
      ~attrs:[ ("dims", Printf.sprintf "%dx%dx%d" m n k) ]
      name f
  else f ()

(* i-k-j loop order keeps the inner loop streaming over contiguous rows of
   both [b] and the accumulator, which matters at covariance-matrix sizes. *)
let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: inner dimension mismatch";
  traced_mul "mat.mul" ~m:a.rows ~n:b.cols ~k:a.cols @@ fun () ->
  let c = create a.rows b.cols in
  let bc = b.cols in
  let rows lo hi =
    for i = lo to hi - 1 do
      let ci = i * bc in
      for k = 0 to a.cols - 1 do
        let aik = unsafe_get a i k in
        if aik <> 0.0 then begin
          let bk = k * bc in
          for j = 0 to bc - 1 do
            Bigarray.Array1.unsafe_set c.data (ci + j)
              (Bigarray.Array1.unsafe_get c.data (ci + j)
              +. (aik *. Bigarray.Array1.unsafe_get b.data (bk + j)))
          done
        end
      done
    done
  in
  if a.rows > 1 && a.rows * a.cols * bc >= parallel_flops then
    Util.Pool.parallel_for (Util.Pool.default ()) ~n:a.rows rows
  else rows 0 a.rows;
  c

(* [a * bᵀ] without materializing the transpose: both operands are scanned
   along contiguous rows, k-blocked so the active row panels stay
   cache-resident at covariance sizes. Within a k-panel four outputs
   [c.(i, j..j+3)] share each load of [a.(i, k)]; every output still adds
   its own terms in ascending-k order (zero [a] entries skipped the same
   way), so the product is bit-identical to [mul a (transpose b)]. *)
let mul_nt_block = 256

let mul_nt a b =
  if a.cols <> b.cols then invalid_arg "Mat.mul_nt: inner dimension mismatch";
  traced_mul "mat.mul_nt" ~m:a.rows ~n:b.rows ~k:a.cols @@ fun () ->
  let c = create a.rows b.rows in
  let kk = a.cols in
  let bn = b.rows in
  let ad = a.data and bd = b.data and cd = c.data in
  let rows lo hi =
    for i = lo to hi - 1 do
      let ai = i * kk in
      let ci = i * bn in
      let k0 = ref 0 in
      while !k0 < kk do
        let k1 = min kk (!k0 + mul_nt_block) in
        let j = ref 0 in
        while !j + 4 <= bn do
          let j0 = !j in
          let b0 = j0 * kk in
          let b1 = b0 + kk in
          let b2 = b1 + kk in
          let b3 = b2 + kk in
          let acc0 = ref (Bigarray.Array1.unsafe_get cd (ci + j0)) in
          let acc1 = ref (Bigarray.Array1.unsafe_get cd (ci + j0 + 1)) in
          let acc2 = ref (Bigarray.Array1.unsafe_get cd (ci + j0 + 2)) in
          let acc3 = ref (Bigarray.Array1.unsafe_get cd (ci + j0 + 3)) in
          for k = !k0 to k1 - 1 do
            let aik = Bigarray.Array1.unsafe_get ad (ai + k) in
            if aik <> 0.0 then begin
              acc0 := !acc0 +. (aik *. Bigarray.Array1.unsafe_get bd (b0 + k));
              acc1 := !acc1 +. (aik *. Bigarray.Array1.unsafe_get bd (b1 + k));
              acc2 := !acc2 +. (aik *. Bigarray.Array1.unsafe_get bd (b2 + k));
              acc3 := !acc3 +. (aik *. Bigarray.Array1.unsafe_get bd (b3 + k))
            end
          done;
          Bigarray.Array1.unsafe_set cd (ci + j0) !acc0;
          Bigarray.Array1.unsafe_set cd (ci + j0 + 1) !acc1;
          Bigarray.Array1.unsafe_set cd (ci + j0 + 2) !acc2;
          Bigarray.Array1.unsafe_set cd (ci + j0 + 3) !acc3;
          j := j0 + 4
        done;
        for j = !j to bn - 1 do
          let bj = j * kk in
          let acc = ref (Bigarray.Array1.unsafe_get cd (ci + j)) in
          for k = !k0 to k1 - 1 do
            let aik = Bigarray.Array1.unsafe_get ad (ai + k) in
            if aik <> 0.0 then
              acc := !acc +. (aik *. Bigarray.Array1.unsafe_get bd (bj + k))
          done;
          Bigarray.Array1.unsafe_set cd (ci + j) !acc
        done;
        k0 := k1
      done
    done
  in
  if a.rows > 1 && a.rows * kk * bn >= parallel_flops then
    Util.Pool.parallel_for (Util.Pool.default ()) ~n:a.rows rows
  else rows 0 a.rows;
  c

let mul_vec m x =
  if Array.length x <> m.cols then invalid_arg "Mat.mul_vec: length mismatch";
  let y = Array.make m.rows 0.0 in
  let rows lo hi =
    for i = lo to hi - 1 do
      let base = i * m.cols in
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc :=
          !acc
          +. (Bigarray.Array1.unsafe_get m.data (base + j) *. Array.unsafe_get x j)
      done;
      y.(i) <- !acc
    done
  in
  if m.rows > 1 && m.rows * m.cols >= parallel_flops then
    Util.Pool.parallel_for (Util.Pool.default ()) ~n:m.rows rows
  else rows 0 m.rows;
  y

let sym_mul_vec = mul_vec

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: not square";
  let acc = ref 0.0 in
  for i = 0 to m.rows - 1 do
    acc := !acc +. unsafe_get m i i
  done;
  !acc

let max_abs_diff a b =
  check_same_shape "max_abs_diff" a b;
  let acc = ref 0.0 in
  for i = 0 to (a.rows * a.cols) - 1 do
    acc :=
      Float.max !acc
        (Float.abs
           (Bigarray.Array1.unsafe_get a.data i
           -. Bigarray.Array1.unsafe_get b.data i))
  done;
  !acc

let is_symmetric ?(tol = 1e-10) m =
  if m.rows <> m.cols then false
  else begin
    let scale_ref = ref 1.0 in
    for i = 0 to (m.rows * m.cols) - 1 do
      scale_ref := Float.max !scale_ref (Float.abs (Bigarray.Array1.unsafe_get m.data i))
    done;
    let ok = ref true in
    (try
       for i = 0 to m.rows - 1 do
         for j = i + 1 to m.cols - 1 do
           if Float.abs (unsafe_get m i j -. unsafe_get m j i) > tol *. !scale_ref
           then begin
             ok := false;
             raise Exit
           end
         done
       done
     with Exit -> ());
    !ok
  end

let frobenius_norm m =
  let acc = ref 0.0 in
  for i = 0 to (m.rows * m.cols) - 1 do
    let v = Bigarray.Array1.unsafe_get m.data i in
    acc := !acc +. (v *. v)
  done;
  sqrt !acc

let words m = m.rows * m.cols

let raw m = m.data

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%.6g" (unsafe_get m i j)
    done;
    Format.fprintf ppf "]@,"
  done;
  Format.fprintf ppf "@]"
