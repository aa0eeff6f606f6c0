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
  arrival_forms : Canonical.t array; (* per gate id *)
  slew_forms : Canonical.t array; (* per gate id *)
  gates_recomputed : int; (* gates this pass computed: all, or an edit's cone *)
  analysis_seconds : float;
}
(** Forms are immutable values that one result may share with another
    (a re-analysis takes every form outside its cone from its parent), so
    no array inside a result may be written. *)

type ctx
(** The expansion rows and basis layout: a pure function of the gate
    locations and the KLE models, so a kind swap keeps it. *)

type parent = { setup : Experiment.circuit_setup; ctx : ctx; result : t }
(** A flat analysis with what an edit of its design reuses: the netlist and
    placement (in [setup]), the context, and every gate's forms. *)

val run : Experiment.circuit_setup -> models:Kle.Model.t array -> t
(** [run setup ~models] performs the single-pass statistical timing using
    the per-parameter truncated KLE models (one per L, W, Vt, tox, as built
    by {!Algorithm2.prepare}), under the span [block_ssta.run]. It builds
    one expansion per physically distinct model
    ({!Algorithm2.samplers_of}). Raises [Invalid_argument] unless exactly 4
    models are given. *)

val analyse : Experiment.circuit_setup -> models:Kle.Model.t array -> parent
(** {!run}, keeping the context beside the result. *)

val rerun : parent -> Experiment.circuit_setup -> t
(** [rerun parent setup] analyses [setup], a design that differs from
    [parent.setup]'s only in the kinds of logic gates, on the same
    placement (build it with {!Experiment.setup_edit}). It recomputes only
    the edit's cone — each swapped gate, each gate whose load changed (a
    fanin of a swapped pin of another capacitance) and their transitive
    fanout, stopping at DFF arrivals — in topological order, takes every
    other form from
    [parent.result], and folds the endpoints in their fixed order. Each cone
    gate sees the same operations on the same inputs as in {!run}, so the
    result equals [run setup ~models] bit for bit; [gates_recomputed] is
    the cone's size. Runs under the span [block_ssta.rerun]; raises
    [Invalid_argument] when the connectivity or placement differ, or an
    [Input]/[Dff] changed kind. *)

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
