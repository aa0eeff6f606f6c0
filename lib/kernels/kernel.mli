(** Spatial correlation kernels (covariance kernels) for normalized
    intra-die parameter variation.

    A kernel [K(x, y)] returns the correlation between parameter values at
    die locations [x] and [y]; all families here are normalized so that
    [K(x, x) = 1]. Families follow the paper's Section 3:

    - {e Gaussian} [exp(-c v²)] — the kernel of the paper's experiments
      (Fig. 1a), best fit to the measurement-backed linear correlogram;
    - {e Exponential} [exp(-c v)] — the [Liu, DAC'07]-style correlogram;
    - {e Separable L1 exponential} [exp(-c (|dx| + |dy|))] — eq. (5), the
      only 2-D family with a fully analytic KLE (used for validation);
    - {e Radial exponential} [exp(-c | ‖x‖ - ‖y‖ |)] — the physically
      unrealistic kernel of [Bhardwaj, ICCAD'06] that the paper criticizes
      (all points on an origin-centric circle perfectly correlated);
    - {e Matérn} — eq. (6), the family [Xiong, TCAD'07] extracts from
      silicon, built on the modified Bessel function K_ν;
    - {e Linear cone} [max(0, 1 - v/ρ)] — the measurement fit of
      [Friedberg, ISQED'05], the fit target of Fig. 3(a); only conditionally
      valid, used as data, not as a model;
    - {e Spherical} — the classical geostatistics kernel, a valid
      cone-like alternative. *)

type point = Geometry.Point.t

type t =
  | Gaussian of { c : float }
  | Exponential of { c : float }
  | Separable_exp_l1 of { c : float }
  | Radial_exponential of { c : float }
  | Matern of { b : float; s : float }
  | Linear_cone of { rho : float }
  | Spherical of { rho : float }
  | Anisotropic_gaussian of { cx : float; cy : float }
      (** [exp(-(cx dx² + cy dy²))]: different correlation lengths along the
          die axes (e.g. scan-direction lithography signatures). Valid
          (product of 1-D Gaussian kernels), but not isotropic. *)
  | Faulty of { base : t; plan : Util.Fault.plan }
      (** Fault-injection decorator: evaluates [base] and corrupts the
          counter-selected evaluations per [plan] ({!Util.Fault}). Test-only
          — lets the robustness suite drive the non-finite guards and PSD
          fallback chains deterministically. [validate]/[is_isotropic]
          delegate to [base]. *)

val eval : t -> point -> point -> float
(** [eval k x y] is K(x, y). *)

val eval_distance : t -> float -> float
(** [eval_distance k v] for isotropic kernels evaluates the radial profile
    K(v) at separation [v >= 0]. Raises [Invalid_argument] for the
    non-isotropic [Separable_exp_l1] and [Radial_exponential] families and
    for negative [v]. *)

val smooth_off_diagonal : t -> bool
(** [true] when [K(x, y)] is analytic wherever [x ≠ y] (Gaussian,
    exponential, Matérn, anisotropic Gaussian): the condition under which
    well-separated blocks of the Galerkin matrix are numerically low rank
    and ACA compresses them reliably. [false] for families with a kink
    away from the diagonal — the L1 norm's axes ([Separable_exp_l1]),
    [|x| = |y|] ([Radial_exponential]) or the support radius
    ([Linear_cone], [Spherical]) — on which ACA can stop early with an
    O(10 %) error — and for [Faulty], whose corrupted values carry no
    structure at all. *)

val name : t -> string
(** Short human-readable description for tables and logs. *)

val validate : t -> (unit, string) result
(** Static parameter validation (positive decay rates, Matérn [s > 1], …). *)

(** {2 Radial profile tables}

    Isotropy means [K(x, y)] depends only on [v = ‖x - y‖], so an n²-entry
    correlation operator can be driven from a 1-D table of K(v) over
    [[0, vmax]] — each entry becomes one linear interpolation instead of an
    [exp]/Bessel/[Γ] evaluation. The H-matrix build of the Galerkin
    operator evaluates its entries this way ({!Kle.Operator}). *)

type profile_table
(** A uniformly spaced tabulation of an isotropic kernel's radial profile,
    with the interpolation error measured at build time. *)

val radial_profile :
  ?points:int ->
  ?tol:float ->
  ?diag:Util.Diag.sink ->
  t ->
  vmax:float ->
  profile_table option
(** [radial_profile k ~vmax] tabulates K(v) at [points] (default [2^17])
    uniform nodes on [[0, vmax]] and measures the max absolute linear
    interpolation error against exact evaluation — at uniformly strided
    probe points and at the midpoints of the intervals with the largest
    second differences, so a single kinked interval (e.g. [Linear_cone] at
    [rho]) cannot slip past the guard.

    Returns [None] — callers must then evaluate exactly — when the kernel is
    not isotropic, when it is a [Faulty] decorator (tabulation would bypass
    the fault plan), when a table entry is non-finite, or when the measured
    error exceeds [tol] (default 1e-9). The two failure modes record a
    [`Non_finite] / [`Degraded_fallback] warning on [diag]. Raises
    [Invalid_argument] when [points < 2] or [vmax <= 0]. *)

val profile_eval : profile_table -> float -> float
(** Linear interpolation of the tabulated profile; [v] is clamped to
    [[0, vmax]]. *)

val profile_table_max_error : profile_table -> float
(** The interpolation error measured by the build-time guard. *)
