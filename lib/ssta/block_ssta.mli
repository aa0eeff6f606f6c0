(** Block-based (single-pass) statistical static timing on the KLE basis —
    the Chang-Sapatnekar-style [5] consumer of the paper's random-field
    model: instead of N Monte Carlo timing passes, arrival times are
    propagated {e once} as first-order canonical forms over the shared
    [4 x r] KLE random variables, with Clark's max at merge points.

    Approximations (all standard for first-order block SSTA):
    - gate delays are linearized around the nominal corner (slews and wire
      loads fixed at their nominal-analysis values);
    - the rank-one quadratic term of the gate model contributes its exact
      mean shift [γ (wᵀ diag(var) w)] and, in variance, a small independent
      remainder;
    - max re-Gaussianizes (Clark's moment matching). *)

type t = {
  basis_dim : int; (* 4 * r *)
  worst : Canonical.t; (* canonical form of the worst endpoint arrival *)
  endpoint_forms : Canonical.t array; (* per Sta.Timing endpoint *)
  analysis_seconds : float;
}

val run : Experiment.circuit_setup -> models:Kle.Model.t array -> t
(** [run setup ~models] performs the single-pass statistical timing using
    the per-parameter truncated KLE models (one per L, W, Vt, tox, as built
    by {!Algorithm2.prepare}), under the span [block_ssta.run]. Raises
    [Invalid_argument] unless exactly 4 models are given. *)

val mean : t -> float
val sigma : t -> float

val quantile : t -> float -> float
(** Gaussian quantile of the worst-delay form (e.g. 0.9987 = +3σ corner). *)

val criticalities : ?samples:int -> ?seed:int -> ?jobs:int -> t -> float array
(** Per-endpoint criticality: the probability that each endpoint is the one
    setting the circuit's worst delay, estimated by sampling the endpoint
    canonical forms on a common basis draw ([samples] defaults to 20000).
    Sums to 1 (ties broken toward the lower index). A classic block-SSTA
    diagnostic: which outputs deserve optimization effort.

    Sampling follows the [Experiment.run_mc] determinism recipe: fixed-size
    batches on counter-derived RNG substreams ({!Prng.Rng.substream} of
    [(seed, batch index)]), fanned out over [jobs] domains
    ({!Util.Pool.with_jobs} semantics) with per-batch tallies merged in
    batch order — bit-identical for every [jobs] value. Samples drawn are
    accumulated on {!Util.Trace.mc_samples}. Raises [Invalid_argument] if
    [samples <= 0]. *)

val validate_against_mc :
  t -> reference:Experiment.mc_result -> float * float
(** [(e_mu_pct, e_sigma_pct)] of the worst-delay form vs a Monte Carlo
    reference. *)
