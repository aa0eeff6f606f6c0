exception Not_positive_definite of int

module Ba = Bigarray.Array1

let factor_lower a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Cholesky.factor_lower: not square";
  let l = Mat.create n n in
  let ad = Mat.raw a and ld = Mat.raw l in
  for j = 0 to n - 1 do
    (* diagonal pivot *)
    let s = ref (Ba.unsafe_get ad ((j * n) + j)) in
    let jrow = j * n in
    for k = 0 to j - 1 do
      let v = Ba.unsafe_get ld (jrow + k) in
      s := !s -. (v *. v)
    done;
    if !s <= 0.0 then raise (Not_positive_definite j);
    let d = sqrt !s in
    Ba.unsafe_set ld (jrow + j) d;
    let inv_d = 1.0 /. d in
    for i = j + 1 to n - 1 do
      let irow = i * n in
      let s = ref (Ba.unsafe_get ad (irow + j)) in
      for k = 0 to j - 1 do
        s := !s -. (Ba.unsafe_get ld (irow + k) *. Ba.unsafe_get ld (jrow + k))
      done;
      Ba.unsafe_set ld (irow + j) (!s *. inv_d)
    done
  done;
  l

let factor_jittered ?(max_tries = 12) a =
  let n = Mat.rows a in
  Util.Trace.with_span
    ~attrs:[ ("n", string_of_int n) ]
    "cholesky.factor_jittered"
  @@ fun () ->
  (* scale jitter by the largest diagonal entry so it is meaningful for both
     unit-variance correlation matrices and raw covariances *)
  let diag_max = ref 0.0 in
  for i = 0 to n - 1 do
    diag_max := Float.max !diag_max (Float.abs (Mat.unsafe_get a i i))
  done;
  let base = Float.max !diag_max 1e-300 in
  let rec attempt tries jitter =
    let a' =
      if jitter = 0.0 then a
      else begin
        let a' = Mat.copy a in
        for i = 0 to n - 1 do
          Mat.unsafe_set a' i i (Mat.unsafe_get a' i i +. jitter)
        done;
        a'
      end
    in
    match factor_lower a' with
    | l -> (l, jitter)
    | exception Not_positive_definite j ->
        if tries >= max_tries then raise (Not_positive_definite j)
        else begin
          Util.Trace.incr Util.Trace.cholesky_jitter_retries;
          let jitter' = if jitter = 0.0 then base *. 1e-12 else jitter *. 10.0 in
          attempt (tries + 1) jitter'
        end
  in
  attempt 0 0.0

let solve l b =
  let n = Mat.rows l in
  if Array.length b <> n then invalid_arg "Cholesky.solve: length mismatch";
  (* forward substitution: l y = b *)
  let y = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for k = 0 to i - 1 do
      s := !s -. (Mat.unsafe_get l i k *. y.(k))
    done;
    y.(i) <- !s /. Mat.unsafe_get l i i
  done;
  (* backward substitution: lᵀ x = y *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for k = i + 1 to n - 1 do
      s := !s -. (Mat.unsafe_get l k i *. x.(k))
    done;
    x.(i) <- !s /. Mat.unsafe_get l i i
  done;
  x
