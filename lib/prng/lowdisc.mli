(** Low-discrepancy (quasi-Monte Carlo) sequences.

    A dividend of the KLE's dimension reduction: with thousands of
    correlated per-gate RVs, QMC is hopeless, but in the reduced [r ~ 25]
    dimensional KLE space a Halton sequence gives the Monte Carlo SSTA
    near-O(1/N) convergence on smooth statistics instead of O(1/√N).

    The generator is a {e randomized} Halton sequence: van der Corput radical
    inverses in the first [dim] prime bases, with a Cranley-Patterson random
    shift (mod 1) drawn from an {!Rng.t} so that estimates stay unbiased and
    can be replicated for error estimation. *)

type t

val create : ?shift_rng:Rng.t -> dim:int -> unit -> t
(** [create ~dim ()] starts a sequence in [dim] dimensions (1 to 1000).
    Without [shift_rng] the raw (deterministic, unshifted) Halton points are
    produced. Raises [Invalid_argument] for out-of-range [dim]. *)

val dim : t -> int

val next_uniform : t -> float array
(** Next point in [0, 1)^dim (skips the index-0 all-zeros point). *)

val normal_matrix : t -> rows:int -> Linalg.Mat.t
(** [rows] successive points mapped through the inverse normal CDF,
    componentwise, as matrix rows — a drop-in replacement for
    [Gaussian.matrix] in samplers. *)

val primes : int -> int array
(** First [n] primes (exposed for tests). *)
