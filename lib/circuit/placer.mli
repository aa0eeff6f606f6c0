(** Placement onto the normalized die, standing in for the Capo placer [23]
    the paper uses.

    Two classic stages: (1) {e quadratic placement} — primary inputs are
    pinned to pad sites around the die boundary and every movable gate
    relaxes to the barycenter of its graph neighbors (Gauss-Seidel on the
    quadratic-wirelength objective); (2) {e top-down legalization} — the
    analytic positions are spread to uniform density by recursive median
    bisection of the die (Capo-style), preserving relative geometry. The
    result clusters connected logic spatially, which is exactly the property
    the spatial-correlation experiments need. *)

type placement = {
  netlist : Netlist.t;
  locations : Geometry.Point.t array; (* per gate id, inside the die *)
  die : Geometry.Rect.t;
}

val place : ?die:Geometry.Rect.t -> ?seed:int -> Netlist.t -> placement
(** [place netlist] places every gate (including [Input] pseudo-gates, which
    model pad locations) inside [die] (default {!Geometry.Rect.unit_die}).
    Deterministic for a given [seed] (default 1). *)

val hpwl_all : placement -> float array
(** [(hpwl_all p).(i)] is the half-perimeter wire length of the net driven
    by gate [i] (bounding box of the driver and its fanout pins); 0 for
    unconnected outputs. *)
