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
  computed_pairs : int; (* eigenpairs computed by the solver; paper: 200 *)
  r : int option; (* retained pairs; None = paper's automatic rule *)
}

val paper_config : config
(** max_area_fraction = 0.001, min_angle_deg = 28, computed_pairs = 200,
    r = None (automatic rule; picks 25 on the paper kernel). *)

type t

val prepare :
  ?config:config ->
  ?mesh:Geometry.Mesh.t ->
  ?diag:Util.Diag.sink ->
  ?jobs:int ->
  Process.t ->
  Geometry.Point.t array ->
  t
(** [prepare process locations] meshes the die (unless [mesh] is given),
    solves the Galerkin KLE for each distinct kernel, and builds the
    per-location expansion matrices. [jobs] controls the domain fan-out of
    the Galerkin assembly or H-matrix build ({!Util.Pool.with_jobs}
    semantics); results do not depend on it. Solver fallbacks (Lanczos → dense) and boundary
    clamps in the expansion setup are reported into [diag]. *)

val setup_seconds : t -> float
(** Wall time for meshing + eigensolution + expansion setup. *)

val r : t -> int
(** Retained eigenpairs of the first parameter's model. *)

val mesh_size : t -> int

val models : t -> Kle.Model.t array
(** Per-parameter truncated models (shared physically when kernels match). *)

val sample_block : t -> Prng.Rng.t -> n:int -> Linalg.Mat.t array
(** Same contract as {!Algorithm1.sample_block}: one [N x N_g] matrix per
    parameter, mutually independent. *)
