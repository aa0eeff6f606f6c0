(** Analytical Karhunen-Loève expansion of the separable L1 exponential
    kernel (paper eq. (5)), following Ghanem & Spanos [8].

    In 1-D, the kernel [exp(-c |x - y|)] on [[-a, a]] has eigenvalues
    [λ = 2c / (ω² + c²)] where the frequencies [ω] solve the transcendental
    equations [c = ω tan(ω a)] (even modes, cosine eigenfunctions) and
    [ω = -c tan(ω a)] (odd modes, sine eigenfunctions). The 2-D separable
    kernel's eigenpairs are products of 1-D pairs.

    This module is the validation reference for the numerical Galerkin
    method: it also models the analytically solvable setting that
    [Bhardwaj, ICCAD'06] (paper ref. [2]) is restricted to. *)

type parity = Even | Odd

type eigenpair_1d = {
  lambda : float;
  omega : float;
  parity : parity;
  norm : float; (* normalization constant of the eigenfunction *)
}

val exp_1d : c:float -> half_width:float -> count:int -> eigenpair_1d array
(** First [count] eigenpairs, eigenvalues descending. Raises
    [Invalid_argument] for non-positive [c], [half_width] or [count]. *)

val eval_1d : eigenpair_1d -> float -> float
(** Evaluate an eigenfunction at a coordinate (relative to the interval
    center). Eigenfunctions are orthonormal in L²([-a, a]). *)

type eigenpair_2d = { lambda : float; fx : eigenpair_1d; fy : eigenpair_1d }

val exp_2d : c:float -> rect:Geometry.Rect.t -> count:int -> eigenpair_2d array
(** First [count] eigenpairs of [Separable_exp_l1 { c }] on [rect]
    (eigenvalues descending), formed as products of enough 1-D modes per
    axis. *)

val reconstruct_kernel :
  rect:Geometry.Rect.t ->
  eigenpair_2d array ->
  Geometry.Point.t ->
  Geometry.Point.t ->
  float
(** Truncated-series kernel reconstruction [Σ λ f(x) f(y)]. *)
