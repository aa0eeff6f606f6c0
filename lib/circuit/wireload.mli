(** Half-perimeter wire-load model (the paper uses HPWL loads on Capo
    placements).

    Each net's wire is modeled from its HPWL at 90 nm-plausible per-length
    resistance/capacitance. The die is normalized to [[-1,1]²]; [die_size_mm]
    sets the physical scale. Units: kΩ, fF, ps. *)

type net_load = {
  r_wire : float; (* total wire resistance, kΩ *)
  c_wire : float; (* total wire capacitance, fF *)
  c_pins : float; (* sum of sink input-pin capacitances, fF *)
}

type t = {
  placement : Placer.placement;
  loads : net_load array; (* indexed by driving gate id *)
  fanouts : int array array;
}

val build : ?die_size_mm:float -> Placer.placement -> t
(** [build placement] computes per-net loads ([die_size_mm] defaults to
    1 mm — a small 90 nm test die). *)

val with_netlist : t -> Netlist.t -> t
(** [with_netlist t netlist] is [build] of [t]'s placement carrying
    [netlist], a design with [t]'s gates and connectivity whose gate kinds
    may differ: it recomputes only the pin loads of the nets that drive a
    changed gate, with the same sums as [build], and keeps every wire.
    Raises [Invalid_argument] when the gate count or a gate's fanins
    differ. *)

val c_load : t -> int -> float
(** Total load on the net driven by gate [i]: wire + sink pins (fF). *)
