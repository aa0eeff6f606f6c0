(** Cholesky factorization of symmetric positive (semi-)definite matrices.

    This is the engine of the paper's Algorithm 1 (the grid-model Monte Carlo
    reference): the gate-location covariance matrix is factored once and its
    upper factor multiplies standard-normal sample matrices. *)

exception Not_positive_definite of int
(** Raised with the offending pivot index when a pivot is non-positive. *)

val factor_lower : Mat.t -> Mat.t
(** [factor_lower a] is the lower-triangular [l] with [l * lᵀ = a]. Only the
    lower triangle of [a] is read. Raises [Not_positive_definite] when a
    pivot fails, and [Invalid_argument] when [a] is not square. *)

val factor_jittered : ?max_tries:int -> Mat.t -> Mat.t * float
(** [factor_jittered a] factors [a], adding an exponentially growing diagonal
    jitter when [a] is positive semi-definite only up to rounding (correlation
    matrices of near-coincident points routinely are). Returns the lower
    factor and the jitter finally used (0 when none was needed). Raises
    [Not_positive_definite] after [max_tries] (default 12) escalations. *)

val solve : Mat.t -> float array -> float array
(** [solve l b] solves [l * lᵀ * x = b] given the lower factor [l]. *)
