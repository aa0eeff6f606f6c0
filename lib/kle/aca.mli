(** Adaptive cross approximation (ACA) with partial pivoting.

    Factors an m×n block [A] as [u·vᵀ] (rank k) from O(k(m+n)) entry
    evaluations — the block is never materialised. Intended for
    {!Cluster.admissible} far-field blocks of a smooth correlation kernel,
    whose singular values decay exponentially; on such blocks the
    heuristic stopping rule [‖u_k‖·‖v_k‖ ≤ tol·‖A_k‖_F] tracks the true
    relative Frobenius error closely.

    Fully deterministic: pivots are argmax scans with fixed tie-breaks. *)

type result = {
  u : Linalg.Mat.t;  (** m × rank *)
  v : Linalg.Mat.t;  (** n × rank *)
  rank : int;
  evals : int;  (** entry evaluations spent building the factors *)
}

val approximate :
  entry:(int -> int -> float) ->
  m:int ->
  n:int ->
  tol:float ->
  max_rank:int ->
  (result, int) Stdlib.result
(** [approximate ~entry ~m ~n ~tol ~max_rank] cross-approximates the block
    [entry i j] (local indices, [0 ≤ i < m], [0 ≤ j < n]) to relative
    tolerance [tol]. Returns [Error evals] (the entry evaluations spent)
    when the rank hits [max_rank] without meeting the tolerance — the
    caller evaluates the block densely instead (see {!Hmatrix.build}). A
    numerically vanished block (all probed pivots below 1e-150) converges
    at its current rank, possibly 0. Raises [Invalid_argument] on an empty
    block or non-positive [tol]. *)
