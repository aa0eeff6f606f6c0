(** Binary cluster tree over triangle centroids — the geometric half of the
    hierarchical (H-matrix) operator.

    Built by median-split bisection: each node's point range is sorted
    along the longer axis of its bounding box (point index as tie-break,
    so the tree is deterministic) and cut at the median, until ranges
    shrink to [leaf_size]. Nodes own contiguous ranges [\[lo, hi)] of the
    permutation [perm]; the far-field/near-field partition of
    {!Kle.Hmatrix} is built from pairs of nodes via {!admissible}. *)

type node = private {
  lo : int;  (** start of the owned range in {!perm} *)
  hi : int;  (** one past the end of the owned range *)
  xmin : float;
  xmax : float;
  ymin : float;
  ymax : float;  (** axis-aligned bounding box of the owned points *)
  left : int;  (** index of the left child node, [-1] for a leaf *)
  right : int;
}

type t

val default_leaf_size : int
(** 48 points: dense leaf blocks stay L1-resident while the tree stays
    shallow. *)

val build : ?leaf_size:int -> Geometry.Point.t array -> t
(** Raises [Invalid_argument] on an empty point set or [leaf_size < 1].
    O(n log² n) from the per-level sorts. *)

val is_leaf : node -> bool
val size : node -> int

val distance : node -> node -> float
(** Euclidean distance between bounding boxes; 0 when they touch or
    overlap. *)

val admissible : eta:float -> node -> node -> bool
(** [min(diam a, diam b) <= eta·dist(a, b)] with [dist > 0] — the block
    [a×b] of a smooth kernel is then uniformly low-rank. Larger [eta]
    admits closer (harder) blocks: more compression, higher ranks. *)

val node : t -> int -> node
val root : t -> node
val root_index : t -> int
val n_nodes : t -> int
val depth : t -> int
val perm : t -> int array
(** [perm.(p)] is the original point index at permuted position [p]. *)
