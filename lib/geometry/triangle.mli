(** Triangle primitives: the Galerkin basis elements of the paper's eq. (17)
    live on these. *)

type t = { a : Point.t; b : Point.t; c : Point.t }

val make : Point.t -> Point.t -> Point.t -> t

val area : t -> float

val centroid : t -> Point.t
(** The quadrature node of the paper's eq. (20). *)

val contains : ?tol:float -> t -> Point.t -> bool
(** Barycentric containment, inclusive of edges within [tol]
    (default 1e-12, scaled by the triangle size). *)

val max_side : t -> float
(** Longest side length — the per-element contribution to the mesh parameter
    [h] of Theorem 2. *)

val min_angle_deg : t -> float
(** Smallest interior angle in degrees (the Triangle-style quality knob). *)

val circumcenter : t -> Point.t
(** Raises [Invalid_argument] on (near-)degenerate triangles. *)

val edge_midpoints : t -> Point.t array
(** The three mid-edge nodes of the degree-2 quadrature rule. *)

val barycentric : t -> Point.t -> float * float * float
(** Barycentric coordinates of a point w.r.t. [a], [b], [c]. *)
