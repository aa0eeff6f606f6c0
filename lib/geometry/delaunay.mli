(** Incremental Delaunay triangulation (Bowyer-Watson).

    Together with {!Refine} this replaces Shewchuk's Triangle mesher [24]:
    the KLE Galerkin method only needs a conforming triangulation of the die
    with controllable element count and quality. *)

type t
(** A mutable triangulation of points inside a bounding rectangle. *)

val create : Rect.t -> t
(** [create rect] starts an empty triangulation able to hold points inside
    [rect] (a super-triangle well outside [rect] is managed internally). *)

val insert : t -> Point.t -> int
(** [insert t p] adds point [p] and restores the Delaunay property,
    returning [p]'s index. If [p] coincides with an existing point (within
    1e-12), that point's index is returned and nothing is inserted. Raises
    [Invalid_argument] when [p] lies outside the bounding rectangle. *)

val point_count : t -> int

val point : t -> int -> Point.t
(** [point t i] is the [i]-th inserted point, without copying {!points}. *)

val points : t -> Point.t array
(** Inserted points, in insertion order (a fresh copy). *)

val iter_triangles : t -> (int -> int -> int -> unit) -> unit
(** [iter_triangles t f] calls [f i j k] on every current triangle, in the
    order of {!triangles}, without building the array. *)

val triangles : t -> (int * int * int) array
(** Current triangles as counter-clockwise index triples into {!points}
    (triangles involving the internal super-triangle are excluded). *)
