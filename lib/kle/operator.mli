(** The Galerkin correlation operator [C = Φ^{1/2} K̃ Φ^{1/2}] as a
    matrix-free {!Linalg.Operator.t}: the Krylov eigensolver only needs
    [C·x], so above the dense regime the operator is compressed once into
    an H-matrix ({!Hmatrix}: cluster tree + ACA low-rank far field + dense
    near field) and applied in O(n log n), at the price of a controlled
    relative error [hier.tol].

    The build writes per-block slots, so the operator is bit-identical for
    every [jobs]; the apply holds no mutable state, so it is safe to call
    concurrently from several domains. *)

type quadrature =
  | Centroid  (** paper eq. (21): one-point rule, degree-1 exact *)
  | Midedge  (** three mid-edge points per triangle, degree-2 exact *)

val mean_kernel_value :
  quadrature -> Geometry.Mesh.t -> Kernels.Kernel.t -> int -> int -> float
(** [mean_kernel_value q mesh kernel i k] is K̃_ik, the quadrature
    approximation of the mean of [K] over element pair [(i, k)] — the shared
    entry rule behind {!Galerkin.assemble} and the H-matrix entries. *)

val hmatrix_galerkin :
  ?quadrature:quadrature ->
  ?hier:Hmatrix.params ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  Geometry.Mesh.t ->
  Kernels.Kernel.t ->
  Hmatrix.t
(** Compress the Galerkin operator's entries into an {!Hmatrix.t}
    ([hier] defaults to {!Hmatrix.default_params}). Isotropic kernels are
    evaluated through a radial profile table
    ({!Kernels.Kernel.radial_profile}) when it passes its accuracy guard,
    exactly otherwise; a rejected table is recorded on [diag]. [jobs] has
    {!Util.Pool.with_jobs} semantics; the result does not depend on it. *)

val of_hmatrix : ?diag:Util.Diag.sink -> Hmatrix.t -> Linalg.Operator.t
(** Wrap hierarchical factors as an operator. A non-finite entry in an
    apply result raises [Util.Diag.Failure] with [`Non_finite] (recorded
    on [diag]). *)
