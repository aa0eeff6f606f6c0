(** Immutable triangle meshes of the die area: the partition
    [D = U triangles] carrying the paper's piecewise-constant Galerkin basis
    (eq. 17). *)

type t = private {
  domain : Rect.t;
  points : Point.t array;
  triangles : (int * int * int) array; (* CCW index triples *)
  areas : float array; (* per-triangle area a_i *)
  centroids : Point.t array; (* per-triangle quadrature node *)
}

val make : Rect.t -> Point.t array -> (int * int * int) array -> t
(** Builds the derived per-element data. Raises [Invalid_argument] on
    out-of-range indices or degenerate (zero-area) triangles. *)

val size : t -> int
(** Number of triangles [n]. *)

val triangle : t -> int -> Triangle.t

val h_max : t -> float
(** The mesh parameter of Theorem 2: the maximum triangle side. *)

val min_angle_deg : t -> float
(** Worst (smallest) interior angle over all elements. *)

val check : t -> (unit, string) result
(** Structural validation: total element area matches the domain area
    (to 1e-6 relative), every interior edge is shared by exactly two
    triangles while boundary edges lie on the domain boundary, and no
    interior angle is below 10° (well below the mesher's 28° target, so
    it catches broken meshes, not merely suboptimal ones). *)

val uniform : Rect.t -> divisions:int -> t
(** A structured fallback mesh: [divisions x divisions] squares split into
    four triangles around their centers (right isoceles, min angle 45°).
    Used by tests and as a mesher-independent baseline. *)
