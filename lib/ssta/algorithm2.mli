(** The paper's Algorithm 2 — the covariance-kernel (KLE) Monte Carlo
    sampler: per statistical parameter, draw [r] uncorrelated standard
    normals and expand them to gate locations through the truncated KLE
    (eq. 28) and the point-in-triangle lookup.

    The KLE eigenproblem depends only on (kernel, mesh) — not on the
    circuit — so its solution is cached per distinct kernel and the per-gate
    expansion matrices are precomputed once per circuit. *)

type config = {
  max_area_fraction : float; (* mesh resolution; paper: 0.001 -> n ~ 1546 *)
  min_angle_deg : float; (* mesh quality; paper: 28 *)
  computed_pairs : int;
      (* eigenpairs solved for a fixed [r]; the cap of the pair ladder for
         [r = None]; paper: 200 *)
  r : int option; (* retained pairs; None = the exact-tail rule *)
}

val paper_config : config
(** max_area_fraction = 0.001, min_angle_deg = 28, computed_pairs = 200,
    r = None (automatic rule; picks 25 on the paper kernel). *)

val mesh : config -> Geometry.Mesh.t
(** The unit-die mesh at [config]'s area fraction and minimum angle, after
    {!Geometry.Mesh.check}; a mesh that fails it raises
    [Util.Diag.Failure] with [`Invalid_input]. *)

val model :
  ?config:config ->
  ?mesh:Geometry.Mesh.t ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  Kernels.Kernel.t ->
  Kle.Model.t
(** [model kernel] is the truncated KLE model of [kernel] on [mesh]
    (default: {!mesh} [config]) — the one builder behind {!prepare} and
    the server's cached models. With [config.r = Some k] it solves
    [config.computed_pairs] pairs and keeps [k]. With [r = None] it climbs
    a pair ladder: it solves 32, 64, 128, … pairs (capped at
    [computed_pairs]) and stops at the first rung where
    {!Kle.Model.choose_r}'s exact-tail rule keeps fewer pairs than it
    solved (32 pairs suffice for the paper's r = 25). A rung of at least
    [n] pairs is a dense solve. Deterministic, so the model does not
    depend on [jobs]. *)

val pairs_spec : config -> string
(** What {!model} solves under [config], for cache keys: the pair count
    for a fixed [r], the ladder's rungs for [r = None]. *)

type t

val prepare :
  ?config:config ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  Process.t ->
  Geometry.Point.t array ->
  t
(** [prepare process locations] meshes the die ({!mesh}), builds a
    {!model} for each distinct kernel, and builds the samplers as
    {!of_models} does. [jobs] controls the domain fan-out of
    the Galerkin assembly or H-matrix build ({!Util.Pool.with_jobs}
    semantics); results do not depend on it. Solver fallbacks (Lanczos → dense) and boundary
    clamps in the expansion setup are reported into [diag]. *)

val samplers_of :
  ?diag:Util.Diag.sink -> Kle.Model.t array -> Geometry.Point.t array -> Kle.Sampler.t array
(** [samplers_of models locations] is one sampler per parameter, built once
    per physically distinct model ([==]) and shared by the parameters that
    use it: samplers are immutable, so the sharing changes no result.
    Boundary clamps go to [diag], once per distinct model. *)

val of_models : ?diag:Util.Diag.sink -> Kle.Model.t array -> Geometry.Point.t array -> t
(** [of_models models locations] builds the per-location expansion
    matrices of models already built (one per parameter, as {!models}
    returns them), as {!prepare} does — the server's cached models feed
    it. Boundary clamps go to [diag]. *)

val setup_seconds : t -> float
(** Wall time {!prepare} spent on meshing + eigensolution + expansion
    setup; 0 for a value from {!of_models}. *)

val r : t -> int
(** Retained eigenpairs of the first parameter's model. *)

val mesh_size : t -> int

val models : t -> Kle.Model.t array
(** Per-parameter truncated models (shared physically when kernels match). *)

val sample_block : t -> Prng.Rng.t -> n:int -> Linalg.Mat.t array
(** Same contract as {!Algorithm1.sample_block}: one [N x N_g] matrix per
    parameter, mutually independent. *)

val qmc_sampler : t -> seed:int -> Prng.Rng.t -> n:int -> Linalg.Mat.t array
(** [qmc_sampler t ~seed] is {!sample_block}'s quasi-Monte Carlo twin:
    parameter [i] draws its reduced KLE coordinates from a randomized-Halton
    sequence ({!Prng.Lowdisc}) shifted by
    [Prng.Rng.substream ~seed ~stream:(0x51C0 + i)]. The sequences are
    stateful and ignore the [Prng.Rng.t] argument: each call continues
    where the last one stopped, so the output is deterministic in [seed]
    for a caller that draws batches in order on one domain, as
    {!Experiment.run_mc} does. *)
