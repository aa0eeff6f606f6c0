(** Truncated KLE models: the reduced [r]-variable representation of the
    random field (paper eq. (3) truncated, plus the truncation-selection rule
    of Section 5.2). *)

type t = {
  solution : Galerkin.solution;
  r : int; (* number of retained eigenpairs *)
  locator : Geometry.Locator.t;
}

val create : ?r:int -> Galerkin.solution -> t
(** [create solution] truncates to [r] eigenpairs (default: {!choose_r} with
    its default tolerance, against the {!Galerkin.trace} of the solution's
    mesh, kernel and quadrature). Raises [Invalid_argument] when [r] exceeds the
    number of computed pairs or is not positive. *)

val choose_r : ?tolerance:float -> trace:float -> float array -> int
(** [choose_r ~trace eigenvalues] is the truncation rule of Section 5.2
    with the discarded weight computed exactly: the smallest [r] such that
    [trace - Σ_{i≤r} λ_i <= tolerance * Σ_{i≤r} λ_i], where [trace] is the
    sum of the whole spectrum ({!Galerkin.trace}) and the partial sum runs
    left to right over the descending [eigenvalues] (default tolerance
    0.01, giving r = 25 on the paper kernel and mesh). The paper's solver
    gives no trace, so it bounds the uncomputed part by [λ_m (n - m)] and
    solves m = 200 pairs; the exact tail lets a few dozen pairs decide the
    same [r]. Returns [m = Array.length eigenvalues] when no [r <= m]
    qualifies. *)

val eval_eigenfunction : ?diag:Util.Diag.sink -> t -> int -> Geometry.Point.t -> float
(** [eval_eigenfunction t j x] evaluates the [j]-th (0-based) eigenfunction
    at die location [x] (piecewise constant on the mesh). Raises
    [Invalid_argument] for [j >= r]. A point outside the die — including
    gates placed exactly on the die boundary that fall between boundary
    triangles — is clamped to the nearest triangle, recording an
    [`Out_of_domain] warning per clamp into [diag]. *)

val eigenvalues : t -> float array
(** The retained [r] eigenvalues, descending. *)

val reconstruct_kernel :
  ?diag:Util.Diag.sink -> t -> Geometry.Point.t -> Geometry.Point.t -> float
(** Truncated-series reconstruction [K̂(x, y) = Σ_{j<r} λ_j f_j(x) f_j(y)].
    Out-of-domain points clamp to the nearest triangle (recorded in [diag]). *)

val reconstruction_error : ?fixed:Geometry.Point.t -> t -> float
(** Max abs error [|K̂(x₀, y) - K(x₀, y)|] with [x₀] the mesh centroid nearest
    to [fixed] (default: die center) and [y] sweeping all mesh centroids —
    the quantity plotted in Fig. 3(b) (paper: max 0.016). Evaluating at
    centroids measures the truncation error of the expansion itself; between
    centroids the piecewise-constant basis adds an O(h·|∇K|) discretization
    floor, measured by {!reconstruction_error_grid}. *)

val reconstruction_error_grid :
  ?grid:int -> ?fixed:Geometry.Point.t -> t -> float
(** Max abs error [|K̂(fixed, y) - K(fixed, y)|] over a [grid x grid] sweep
    of arbitrary die locations [y] (defaults: 41, die center). *)

val reconstruction_error_pairwise : ?stride:int -> t -> float
(** Max abs error over all centroid {e pairs} (subsampled by [stride],
    default 7) — the worst case over the whole die, not just from the
    center. *)

val captured_variance_fraction : t -> float
(** [Σ_{j<r} λ_j / trace]: fraction of total field variance retained. *)

val d_lambda : t -> Linalg.Mat.t
(** The [n x r] matrix [D_λ = D_r √Λ_r] of eq. (28): maps a reduced sample
    [ξ] to per-triangle field values. *)
