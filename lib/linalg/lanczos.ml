exception No_convergence of { converged : int; wanted : int }

type result = {
  eigenvalues : float array;
  eigenvectors : float array array;
  iterations : int;
  residuals : float array;
}

(* deterministic start vector from a splitmix64 stream *)
let start_vector n seed =
  let state = ref (Int64.of_int (seed * 2654435761 + 1)) in
  let next () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
  in
  let v = Array.init n (fun _ -> next () -. 0.5) in
  Vec.normalize v

(* remove components of [v] along the first [m] rows of [basis], twice
   ("twice is enough" full reorthogonalization) *)
let reorthogonalize basis m v =
  for _pass = 1 to 2 do
    for i = 0 to m - 1 do
      let q = basis.(i) in
      let c = Vec.dot q v in
      if c <> 0.0 then Vec.axpy (-.c) q v
    done
  done

let top_k ~matvec ~n ~k ?(tol = 1e-9) ?max_dim ?(seed = 7) () =
  if k <= 0 || k > n then invalid_arg "Lanczos.top_k: need 0 < k <= n";
  Util.Trace.with_span
    ~attrs:[ ("n", string_of_int n); ("k", string_of_int k) ]
    "lanczos.top_k"
  @@ fun () ->
  let matvec v =
    Util.Trace.incr Util.Trace.matvecs;
    matvec v
  in
  let max_dim =
    match max_dim with Some m -> min m n | None -> min n ((4 * k) + 80)
  in
  let basis = Array.make max_dim [||] in
  let alpha = Array.make max_dim 0.0 in
  let beta = Array.make max_dim 0.0 in
  (* beta.(j) couples basis.(j-1) and basis.(j) *)
  basis.(0) <- start_vector n seed;
  let m = ref 0 in
  (* norm of the residual from the latest extension step; beta.(dim) is only
     stored while there is room for another basis vector, so this keeps the
     residual bound honest when the basis has grown to the full budget *)
  let last_beta = ref 0.0 in
  (* extend the Krylov basis to dimension [target] *)
  let extend target =
    while !m < target do
      let j = !m in
      let q = basis.(j) in
      let w = matvec q in
      if j > 0 then Vec.axpy (-.beta.(j)) basis.(j - 1) w;
      alpha.(j) <- Vec.dot q w;
      Vec.axpy (-.alpha.(j)) q w;
      reorthogonalize basis (j + 1) w;
      let b = Vec.norm2 w in
      m := j + 1;
      last_beta := b;
      if !m < max_dim then begin
        if b < 1e-13 then begin
          (* invariant subspace found: restart with a fresh orthogonal vector *)
          let v = start_vector n (seed + !m + 101) in
          reorthogonalize basis !m v;
          let nv = Vec.norm2 v in
          if nv < 1e-13 then m := max_dim (* whole space spanned *)
          else begin
            beta.(!m) <- 0.0;
            basis.(!m) <- Vec.scale (1.0 /. nv) v
          end
        end
        else begin
          beta.(!m) <- b;
          basis.(!m) <- Vec.scale (1.0 /. b) w
        end
      end
    done
  in
  (* Ritz extraction at current dimension; returns (values desc, tridiagonal
     eigenvector matrix, permutation, last beta) *)
  let ritz () =
    let dim = !m in
    let d = Array.sub alpha 0 dim in
    let e = Array.make dim 0.0 in
    for i = 1 to dim - 1 do
      e.(i) <- beta.(i)
    done;
    let z = Mat.identity dim in
    let d = Sym_eig.tridiag_ql_vectors d e z in
    let sorted, perm = Util.Arrayx.sort_desc_with_perm d in
    (sorted, z, perm)
  in
  let finished = ref None in
  let grow_step = max 16 (k / 2) in
  while !finished = None do
    let target = min max_dim (max (!m + grow_step) (min max_dim (2 * k))) in
    Util.Trace.with_span "lanczos.extend" (fun () -> extend target);
    let sorted, z, perm = Util.Trace.with_span "lanczos.ritz" ritz in
    let dim = !m in
    let beta_last = if dim < max_dim then beta.(dim) else !last_beta in
    let scale_ref = Float.max (Float.abs sorted.(0)) 1e-300 in
    let kk = min k dim in
    let residual i =
      (* classic Lanczos residual bound: |beta_m * s_{m,i}| *)
      Float.abs (beta_last *. Mat.get z (dim - 1) perm.(i))
    in
    let all_ok = ref (kk = k) in
    for i = 0 to kk - 1 do
      (* written so that a NaN residual counts as not converged *)
      if not (residual i <= tol *. scale_ref) then all_ok := false
    done;
    if !all_ok || dim >= max_dim then begin
      if not !all_ok then begin
        let converged = ref 0 in
        (try
           for i = 0 to kk - 1 do
             if residual i <= tol *. scale_ref then incr converged else raise Exit
           done
         with Exit -> ());
        (* accept looser convergence at full budget only if reasonably tight *)
        let loose_ok = ref (kk = k) in
        for i = 0 to kk - 1 do
          if not (residual i <= 1e-5 *. scale_ref) then loose_ok := false
        done;
        if not !loose_ok then
          raise (No_convergence { converged = !converged; wanted = k })
      end;
      (* assemble Ritz vectors y_i = Q * s_i *)
      let vectors =
        Array.init kk (fun i ->
            let y = Array.make n 0.0 in
            for j = 0 to dim - 1 do
              let s = Mat.get z j perm.(i) in
              if s <> 0.0 then Vec.axpy s basis.(j) y
            done;
            y)
      in
      let residuals = Array.init kk residual in
      finished :=
        Some
          {
            eigenvalues = Array.sub sorted 0 kk;
            eigenvectors = vectors;
            iterations = dim;
            residuals;
          }
    end
  done;
  match !finished with
  | Some r ->
      Util.Trace.add Util.Trace.lanczos_iterations r.iterations;
      r
  | None -> assert false

let top_k_op ~op ~k ?tol ?max_dim ?seed () =
  top_k ~matvec:(Operator.apply op) ~n:(Operator.dim op) ~k ?tol ?max_dim ?seed
    ()
