(** The paper's core numerical method (Sections 3.2 and 4): Galerkin
    projection of the Fredholm eigenproblem
    [∫_D K(x,y) f(y) dy = λ f(x)]
    onto piecewise-constant basis functions over a triangulation, with
    centroid-rule (or mid-edge degree-2) quadrature, reduced to a standard
    symmetric eigenvalue problem.

    With the orthogonal piecewise-constant basis, [Φ = diag(a_i)] and
    [K_ik ≈ K(c_i, c_k) a_i a_k] (eq. 21). Instead of the non-symmetric
    [Φ⁻¹K] of eq. (15) we solve the similar {e symmetric} problem
    [C = Φ^{-1/2} K Φ^{-1/2}], i.e. [C_ik = K(c_i,c_k) √(a_i a_k)], and
    rescale eigenvectors by [Φ^{-1/2}] — the same eigenvalues, better
    numerics. Eigenvectors are normalized so the corresponding
    eigen{e functions} are orthonormal in L²(D): [Σ_i d_i² a_i = 1]. *)

type quadrature = Operator.quadrature =
  | Centroid  (** paper eq. (21): one-point rule, degree-1 exact *)
  | Midedge  (** three mid-edge points per triangle, degree-2 exact — the
                 "higher order" extension the paper mentions in Sec. 4.2 *)

type solver =
  | Dense  (** full tred2/tql2 decomposition: all [n] eigenpairs *)
  | Lanczos of { count : int }
      (** leading [count] eigenpairs by Lanczos iteration (the paper computes
          "only the first 200") *)

type mode =
  | Auto
      (** [Hierarchical] when the solver is Lanczos, [n > 600] and the
          kernel is {!Kernels.Kernel.smooth_off_diagonal}; [Assembled]
          otherwise — the rule production callers use *)
  | Assembled
      (** materialize the n×n Galerkin matrix, then eigensolve — the
          exact reference of the accuracy tests *)
  | Hierarchical
      (** Lanczos over the O(n log n) H-matrix apply
          ({!Operator.hmatrix_galerkin}: cluster tree + ACA far field,
          {!Hmatrix}); requires a Lanczos solver and a kernel that is
          {!Kernels.Kernel.smooth_off_diagonal}. Eigenvalues carry a
          controlled relative error of order [hier.tol] *)

type solution = {
  mesh : Geometry.Mesh.t;
  kernel : Kernels.Kernel.t;
  quadrature : quadrature;
  eigenvalues : float array; (* descending *)
  coefficients : Linalg.Mat.t;
      (* n x k; column j holds the basis coefficients d of the j-th
         eigenfunction, normalized to L²(D) *)
}

val assemble :
  ?quadrature:quadrature ->
  ?jobs:int ->
  Geometry.Mesh.t ->
  Kernels.Kernel.t ->
  Linalg.Mat.t
(** [assemble mesh kernel] is the symmetric matrix [C] above (n x n). The
    O(n²) kernel evaluations are spread over [jobs] domains
    ({!Util.Pool.with_jobs} semantics: default = the shared pool, [1] =
    sequential); the result is bit-identical for every [jobs]. *)

val solve :
  ?quadrature:quadrature ->
  ?mode:mode ->
  ?solver:solver ->
  ?hier:Hmatrix.params ->
  ?lanczos_max_dim:int ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  Geometry.Mesh.t ->
  Kernels.Kernel.t ->
  solution
(** Solve the Galerkin eigenproblem. Default solver is [Dense] below 600
    triangles and [Lanczos {count = min n 200}] above; default [mode] is
    [Auto], so a solve assembles the matrix at [n ≤ 600], with a [Dense]
    solver or for a kernel with an off-diagonal kink, and runs Lanczos
    over the H-matrix otherwise. Eigenvalues are clamped at 0 (tiny
    negative rounding values only). [Hierarchical] with an explicit
    [Dense] solver or a kernel that is not
    {!Kernels.Kernel.smooth_off_diagonal} raises [Invalid_argument]. [hier]
    tunes the H-matrix build ({!Hmatrix.default_params} otherwise); a far
    block whose ACA stalls is stored exactly, so the build never fails.

    Robustness behaviour (all events recorded into [diag] when given):
    - on the assembled path the matrix is scanned for NaN/inf before the
      eigensolve; a non-finite entry raises [Util.Diag.Failure] with
      [`Non_finite] naming the kernel and element pair — on the H-matrix
      path each apply result is scanned instead ([`Non_finite], stage
      ["kle.operator.apply"]);
    - an assembled Lanczos run that fails to converge ([lanczos_max_dim]
      caps its Krylov dimension, mainly for tests) falls back to the dense
      QL solver for the same leading [count] pairs, recording
      [`No_convergence] and [`Degraded_fallback] warnings; an H-matrix
      run that fails to converge falls back to assembly + dense QL, same
      two warnings, preserving the audit trail;
    - a radial profile table that fails its accuracy guard falls back to
      exact evaluation of the H-matrix entries ([`Degraded_fallback]
      recorded by {!Kernels.Kernel.radial_profile});
    - a non-finite eigenvalue (e.g. an overflowing eigensolve) raises
      [Util.Diag.Failure] with [`Non_finite];
    - a genuinely indefinite kernel raises [Util.Diag.Failure] with
      [`Not_psd]. *)

val solve_with_operator :
  ?quadrature:quadrature ->
  solver:solver ->
  ?lanczos_max_dim:int ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  op:Linalg.Operator.t ->
  Geometry.Mesh.t ->
  Kernels.Kernel.t ->
  solution
(** Lanczos over a caller-supplied operator, with {!solve}'s
    No_convergence fallback (assembly + dense QL) and finalization. For
    callers that build the H-matrix themselves, e.g. to time the build
    apart from the solve ([bench scale]). Requires a [Lanczos] solver ([Invalid_argument] otherwise);
    [op] must be the Galerkin operator of [mesh]/[kernel]/[quadrature]
    or the returned solution is meaningless. *)

val trace : ?quadrature:quadrature -> Geometry.Mesh.t -> Kernels.Kernel.t -> float
(** The trace of the Galerkin matrix [C], i.e. the sum of all [n] of its
    eigenvalues: [Σ_i K(c_i, c_i) a_i] under the default [Centroid] rule
    (= die area for normalized kernels), the mean of [K] over each
    element's mid-edge points under [Midedge]. It is the total variance
    that the full spectrum accounts for, at [n] kernel evaluations
    ([9n] for [Midedge]). *)
