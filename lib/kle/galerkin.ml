module Mesh = Geometry.Mesh
module Kernel = Kernels.Kernel

type quadrature = Operator.quadrature = Centroid | Midedge

type solver = Dense | Lanczos of { count : int }

type mode = Auto | Assembled | Hierarchical

type solution = {
  mesh : Mesh.t;
  kernel : Kernel.t;
  quadrature : quadrature;
  eigenvalues : float array;
  coefficients : Linalg.Mat.t;
}

let assemble ?(quadrature = Centroid) ?jobs mesh kernel =
  let n = Mesh.size mesh in
  Util.Trace.with_span
    ~attrs:
      [
        ("n", string_of_int n);
        ( "quadrature",
          match quadrature with Centroid -> "centroid" | Midedge -> "midedge"
        );
      ]
    "galerkin.assemble"
  @@ fun () ->
  (* n(n+1)/2 element pairs, 1 (centroid) or 9 (midedge) kernel
     evaluations each — counted in bulk so the total is jobs-independent *)
  Util.Trace.add Util.Trace.kernel_evals
    (n * (n + 1) / 2 * (match quadrature with Centroid -> 1 | Midedge -> 9));
  let mean = Operator.mean_kernel_value quadrature mesh kernel in
  let sqrt_area = Array.map sqrt mesh.Mesh.areas in
  let c = Linalg.Mat.create n n in
  (* upper-triangle rows fan out over the pool: pair (i, k) with i <= k is
     owned by row i alone, and it writes the two distinct cells (i, k) and
     (k, i) — so any row partition gives a race-free, bit-identical matrix.
     Small chunks keep the shrinking rows load-balanced. *)
  Util.Pool.with_jobs ?jobs (fun pool ->
      Util.Pool.parallel_for pool ~chunk:8 ~n (fun lo hi ->
          for i = lo to hi - 1 do
            for k = i to n - 1 do
              let v = mean i k *. sqrt_area.(i) *. sqrt_area.(k) in
              Linalg.Mat.unsafe_set c i k v;
              Linalg.Mat.unsafe_set c k i v
            done
          done));
  c

let trace ?(quadrature = Centroid) mesh kernel =
  let mean = Operator.mean_kernel_value quadrature mesh kernel in
  let acc = ref 0.0 in
  for i = 0 to Mesh.size mesh - 1 do
    acc := !acc +. (mean i i *. mesh.Mesh.areas.(i))
  done;
  !acc

(* the one size rule: up to [dense_max] triangles the default solver is
   dense QL and Auto assembles the matrix; above it the default solver is
   Lanczos and Auto applies the H-matrix, so the O(n²) assembly is never
   paid where it is the avoidable cost *)
let dense_max = 600

let default_solver n = if n <= dense_max then Dense else Lanczos { count = min n 200 }

(* Finiteness and PSD validity checks + eigenvector rescale shared by every
   solve path. [raw_vectors_cols j] must return the j-th unit-norm
   eigenvector of C. *)
let finalize ?diag mesh kernel quadrature raw_values raw_vectors_cols =
  let n = Mesh.size mesh in
  let k = Array.length raw_values in
  (* the clamp below would pass a NaN through: fail on it here *)
  Array.iteri
    (fun j v ->
      if not (Float.is_finite v) then
        Util.Diag.fail ?sink:diag `Non_finite ~stage:"galerkin.solve"
          (Printf.sprintf "kernel %s: eigenvalue %d is non-finite (%g)" (Kernel.name kernel)
             j v))
    raw_values;
  (* validity check: a correct kernel's Galerkin matrix is PSD up to
     rounding. Tolerate only tiny negative values. *)
  let scale = Float.max 1e-300 (Float.abs raw_values.(0)) in
  Array.iter
    (fun v ->
      if v < -1e-8 *. scale *. float_of_int n then
        Util.Diag.fail ?sink:diag `Not_psd ~stage:"galerkin.solve"
          (Printf.sprintf
             "kernel %s is not non-negative definite on this mesh (eigenvalue \
              %g)"
             (Kernel.name kernel) v))
    raw_values;
  let eigenvalues = Array.map (fun v -> Float.max 0.0 v) raw_values in
  (* rescale: d = Φ^{-1/2} c-vector; then normalize to Σ d_i² a_i = 1 so the
     eigenfunctions are orthonormal in L²(D). With unit-norm c-vectors the
     rescale already achieves this, but normalizing explicitly protects
     against solver-dependent vector scaling. *)
  let inv_sqrt_area = Array.map (fun a -> 1.0 /. sqrt a) mesh.Mesh.areas in
  let coefficients = Linalg.Mat.create n k in
  for j = 0 to k - 1 do
    let cvec = raw_vectors_cols j in
    let d = Array.mapi (fun i ci -> ci *. inv_sqrt_area.(i)) cvec in
    let norm2 = ref 0.0 in
    for i = 0 to n - 1 do
      norm2 := !norm2 +. (d.(i) *. d.(i) *. mesh.Mesh.areas.(i))
    done;
    let s = 1.0 /. sqrt (Float.max !norm2 1e-300) in
    for i = 0 to n - 1 do
      Linalg.Mat.unsafe_set coefficients i j (s *. d.(i))
    done
  done;
  { mesh; kernel; quadrature; eigenvalues; coefficients }

(* [keep] truncates the dense QL spectrum (used when Dense is a fallback for
   a Lanczos request that only wanted the leading [count] pairs) *)
let solve_assembled ~quadrature ~solver ?keep ?lanczos_max_dim ?diag ?jobs mesh
    kernel =
  let n = Mesh.size mesh in
  let c = assemble ~quadrature ?jobs mesh kernel in
  (* stage guard: a NaN/inf anywhere in the Galerkin matrix would silently
     poison the whole eigensolve — fail here with a typed diagnostic naming
     the kernel and the offending element pair instead *)
  (match Linalg.Mat.find_non_finite c with
  | Some (i, k) ->
      Util.Diag.fail ?sink:diag `Non_finite ~stage:"galerkin.assemble"
        (Printf.sprintf
           "kernel %s produced a non-finite Galerkin entry for element pair \
            (%d, %d)"
           (Kernel.name kernel) i k)
  | None -> ());
  let dense_cols count =
    let vals, q = Linalg.Sym_eig.eig c in
    (Array.sub vals 0 count, fun j -> Linalg.Mat.col q j)
  in
  let raw_values, raw_vectors_cols =
    match solver with
    | Dense -> dense_cols (match keep with Some k -> min k n | None -> n)
    | Lanczos { count } -> (
        match
          Linalg.Lanczos.top_k_op ~op:(Linalg.Operator.of_mat c) ~k:count
            ?max_dim:lanczos_max_dim ()
        with
        | r -> (r.eigenvalues, fun j -> r.eigenvectors.(j))
        | exception Linalg.Lanczos.No_convergence { converged; wanted } ->
            Util.Diag.record ?sink:diag Warning `No_convergence
              ~stage:"galerkin.solve"
              (Printf.sprintf "Lanczos converged %d of %d pairs for kernel %s"
                 converged wanted (Kernel.name kernel));
            Util.Diag.record ?sink:diag Warning `Degraded_fallback
              ~stage:"galerkin.solve"
              (Printf.sprintf
                 "falling back to the dense QL eigensolver for the leading %d \
                  pairs (n = %d)"
                 count n);
            dense_cols count)
  in
  finalize ?diag mesh kernel quadrature raw_values raw_vectors_cols

(* Lanczos over an already-built matrix-free operator, with the standard
   No_convergence fallback to assembly + dense QL. Public so callers that
   build the H-matrix themselves (to time or inspect it) reuse the exact
   solve path of {!solve}. *)
let solve_with_operator ?(quadrature = Centroid) ~solver ?lanczos_max_dim ?diag
    ?jobs ~op mesh kernel =
  let n = Mesh.size mesh in
  let count =
    match solver with
    | Lanczos { count } -> count
    | Dense ->
        invalid_arg
          "Galerkin.solve_with_operator: requires the Lanczos solver (the \
           dense QL solver factorizes the assembled matrix)"
  in
  match Linalg.Lanczos.top_k_op ~op ~k:count ?max_dim:lanczos_max_dim () with
  | r ->
      finalize ?diag mesh kernel quadrature r.eigenvalues (fun j ->
          r.eigenvectors.(j))
  | exception Linalg.Lanczos.No_convergence { converged; wanted } ->
      Util.Diag.record ?sink:diag Warning `No_convergence
        ~stage:"galerkin.solve"
        (Printf.sprintf
           "matrix-free Lanczos converged %d of %d pairs for kernel %s"
           converged wanted (Kernel.name kernel));
      Util.Diag.record ?sink:diag Warning `Degraded_fallback
        ~stage:"galerkin.solve"
        (Printf.sprintf
           "falling back to assembly and the dense QL eigensolver for the \
            leading %d pairs (n = %d)"
           count n);
      solve_assembled ~quadrature ~solver:(Dense : solver) ~keep:count
        ?lanczos_max_dim ?diag ?jobs mesh kernel

let solve ?(quadrature = Centroid) ?(mode = Auto) ?solver ?hier
    ?lanczos_max_dim ?diag ?jobs mesh kernel =
  let n = Mesh.size mesh in
  let solver = match solver with Some s -> s | None -> default_solver n in
  Util.Trace.with_span
    ~attrs:
      [
        ("n", string_of_int n);
        ("solver", match solver with Dense -> "dense" | Lanczos _ -> "lanczos");
      ]
    "galerkin.solve"
  @@ fun () ->
  (match solver with
  | Lanczos { count } when count <= 0 || count > n ->
      invalid_arg "Galerkin.solve: Lanczos count out of range"
  | _ -> ());
  (* kernels with an off-diagonal kink defeat ACA's stopping rule, so Auto
     keeps assembling them at every size *)
  let compressible = Kernel.smooth_off_diagonal kernel in
  let hierarchical =
    match (mode, solver) with
    | Auto, Lanczos _ -> n > dense_max && compressible
    | Hierarchical, Dense ->
        invalid_arg
          "Galerkin.solve: the hierarchical mode requires the Lanczos solver \
           (the dense QL solver factorizes the assembled matrix)"
    | Hierarchical, Lanczos _ ->
        if not compressible then
          invalid_arg
            (Printf.sprintf
               "Galerkin.solve: kernel %s is not smooth off the diagonal; the \
                H-matrix cannot compress it"
               (Kernel.name kernel));
        true
    | (Auto | Assembled), _ -> false
  in
  if hierarchical then
    let op =
      Operator.of_hmatrix ?diag
        (Operator.hmatrix_galerkin ~quadrature ?hier ?diag ?jobs mesh kernel)
    in
    solve_with_operator ~quadrature ~solver ?lanczos_max_dim ?diag ?jobs ~op mesh
      kernel
  else
    solve_assembled ~quadrature ~solver ?lanczos_max_dim ?diag ?jobs mesh kernel

