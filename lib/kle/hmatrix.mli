(** Hierarchical (H-matrix) form of the symmetric Galerkin operator:
    O(n log n) storage and matvec instead of the dense matrix's O(n²).

    A {!Cluster} tree over the triangle centroids partitions the upper
    triangle of the index square into {e admissible} far-field blocks —
    compressed to low rank by {!Aca} with relative tolerance [tol] — and
    leaf×leaf dense near-field blocks evaluated exactly. A far block whose
    ACA stalls at [max_rank] is evaluated exactly as a dense near block
    too, so the build always succeeds. Blocks below the diagonal are the
    transposes of stored ones and are applied, not stored, so the
    compressed operator is exactly symmetric. The eigenvalue perturbation
    of the compressed operator is bounded by its 2-norm error, which the
    per-block ACA stopping rule keeps near [tol·‖C‖_F].

    Deterministic end to end: the partition is a fixed depth-first
    traversal, the (parallel) build writes one slot per block, and
    {!apply} walks blocks sequentially in partition order — results are
    bit-identical for every [jobs] count. *)

type params = {
  tol : float;  (** relative ACA tolerance per far-field block *)
  eta : float;  (** admissibility: [min(diam) ≤ eta·dist] *)
  leaf_size : int;  (** cluster-tree leaf size (near-block edge bound) *)
  max_rank : int;
      (** ACA rank cap — a far block that needs more is stored dense *)
}

val default_params : params
(** [{tol = 1e-6; eta = 2.0; leaf_size = 48; max_rank = 96}]. *)

type block =
  | Near of { rlo : int; rhi : int; clo : int; chi : int; data : Linalg.Mat.t }
      (** dense [(rhi-rlo) × (chi-clo)] near-field block, row/column
          ranges in the permuted ordering *)
  | Far of {
      rlo : int;
      rhi : int;
      clo : int;
      chi : int;
      u : Linalg.Mat.t;
      v : Linalg.Mat.t;
    }  (** low-rank far-field block [u·vᵀ] ({!Linalg.Lowrank} layout) *)

type stats = {
  tree_nodes : int;
  tree_depth : int;
  near_blocks : int;
  far_blocks : int;
  stalled_blocks : int;
      (** admissible blocks stored dense because ACA stalled at
          [max_rank] (counted in [near_blocks] too) *)
  near_entries : int;  (** dense entries stored (= near-field evaluations) *)
  rank_sum : int;  (** Σ ACA ranks over far blocks *)
  entry_evals : int;  (** total entry evaluations spent building *)
}

type t = {
  n : int;
  perm : int array;  (** {!Cluster.perm} of the underlying tree *)
  blocks : block array;
      (** partition of the upper triangle of the index square, fixed
          order; a block off the diagonal also stands for its transpose *)
  stats : stats;
}
(** Concrete so tests can inspect the partition; treat as read-only and
    use {!validate} after constructing one by hand. *)

val build :
  ?params:params ->
  ?jobs:int ->
  entry:(int -> int -> float) ->
  Geometry.Point.t array ->
  t
(** [build ~entry points] compresses the symmetric operator
    [entry i k] (original, un-permuted indices) using the geometry of
    [points] (one per index). Total: a far block whose ACA stalls at
    [max_rank] is stored as an exact dense block and counted in
    [stats.stalled_blocks]. Adds bulk totals to the {!Util.Trace} counters [kernel_evals],
    [nearfield_evals], [aca_rank_sum], [htree_nodes] and
    [hmatrix_near_blocks]/[hmatrix_far_blocks]; all totals and the
    result are independent of [jobs] ({!Util.Pool.with_jobs} semantics). *)

val apply : t -> float array -> float array
(** The compressed matvec. O(n log n); sequential, so safe to call
    concurrently from several domains. Raises [Invalid_argument] on a
    length mismatch. *)

val dim : t -> int
val stats : t -> stats

val words : t -> int
(** Stored floats across all blocks — the O(n log n) memory footprint,
    versus [n²] for the dense matrix. *)

val validate : t -> (unit, string) result
(** Structural integrity: [perm] is a permutation, every block's ranges
    and factor shapes are consistent, every block lies on or above the
    diagonal, and the blocks with their mirrored halves tile the full
    index square. *)
