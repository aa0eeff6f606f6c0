(** Field sampling at fixed die locations — the paper's Algorithm 2.

    A sampler precomputes, for a set of locations (gate positions), the
    [N_loc x r] matrix [B] with [B_gj = √λ_j d_{t(g),j}] where [t(g)] is the
    triangle containing location [g]. A field realization at all locations
    is then the single mat-vec [p = B ξ] with [ξ ~ N(0, I_r)]. *)

type t

val create : ?diag:Util.Diag.sink -> Model.t -> Geometry.Point.t array -> t
(** [create model locations] resolves each location to its containing
    triangle (nearest triangle for locations exactly on the die boundary)
    and builds [B]. Each clamp to a nearest triangle is counted and reported
    as one aggregate [`Out_of_domain] warning into [diag]. *)

val model : t -> Model.t

val dim : t -> int
(** Number of reduced random variables [r]. *)

val triangle_of_location : t -> int -> int
(** Mesh triangle index backing each location (for tests/debugging). *)

val expansion : t -> Linalg.Mat.t
(** The [N_loc x r] matrix [B] with [B_gj = √λ_j d_{t(g),j}]: row [g] maps
    the reduced sample [ξ] to the field value at location [g]. Shared with
    block-based SSTA, which uses the same rows as per-gate parameter
    sensitivities. Aliases internal state — do not mutate. *)

val sample : t -> Prng.Rng.t -> float array
(** One field realization at all locations. *)

val sample_matrix : ?paper_literal:bool -> t -> Prng.Rng.t -> n:int -> Linalg.Mat.t
(** [n] independent realizations as rows. By default the expansion goes
    through the precomputed [N_loc x r] matrix [B] ([O(n · r · N_loc)]);
    [~paper_literal:true] instead computes the paper's Algorithm 2 verbatim:
    expand to {e all mesh triangles} ([P_Δ = Ξ D_λᵀ], eq. 28), then gather
    each location's containing-triangle row —
    [O(n · r · n_triangles + n · N_loc)], the overhead the paper attributes
    to "the reconstruction in (28)". Both paths consume the same random
    stream and produce bit-identical matrices; the literal path exists as a
    cost ablation.

    The product is {!Linalg.Mat.mul_nt}, which fans its rows out over
    [Util.Pool.default ()] once [n · r · N_loc] reaches its parallel
    threshold — whatever [jobs] the caller gives
    [Ssta.Experiment.run_mc], whose [jobs] only sizes the timing fan-out.
    The result is bit-identical for any pool size. *)

val sample_matrix_with : t -> xi:Linalg.Mat.t -> Linalg.Mat.t
(** Expand externally supplied reduced-space samples (rows of [xi], width
    [r]) to the locations — e.g. quasi-Monte Carlo points from
    [Prng.Lowdisc]. Raises [Invalid_argument] on width mismatch. *)
