type net_load = {
  r_wire : float;
  c_wire : float;
  c_pins : float;
}

type t = {
  placement : Placer.placement;
  loads : net_load array;
  fanouts : int array array;
}

(* 90 nm global-ish metal: ~0.35 kΩ/mm, ~180 fF/mm are typical ballpark
   figures for minimum-width intermediate layers *)
let r_per_mm = 0.35
let c_per_mm = 180.0

(* the input-pin capacitance on the net driven by gate [i] *)
let pin_load (netlist : Netlist.t) fanouts i =
  Array.fold_left
    (fun acc s -> acc +. (Gate.timing netlist.gates.(s).kind).Gate.c_in)
    0.0 fanouts.(i)

let build ?(die_size_mm = 1.0) (placement : Placer.placement) =
  let netlist = placement.Placer.netlist in
  let fanouts = Netlist.fanouts netlist in
  let die_w = Geometry.Rect.width placement.Placer.die in
  let mm_per_unit = die_size_mm /. die_w in
  let hpwls = Placer.hpwl_all placement in
  let loads =
    Array.init (Netlist.size netlist) (fun i ->
        let len_mm = hpwls.(i) *. mm_per_unit in
        { r_wire = r_per_mm *. len_mm; c_wire = c_per_mm *. len_mm;
          c_pins = pin_load netlist fanouts i })
  in
  { placement; loads; fanouts }

(* A kind sets only a gate's input-pin capacitance, which sits in its
   drivers' loads; the wires follow the placement and the connectivity. *)
let with_netlist t (netlist : Netlist.t) =
  let old = t.placement.Placer.netlist in
  if Netlist.size netlist <> Netlist.size old then
    invalid_arg "Wireload.with_netlist: another gate count";
  let loads = Array.copy t.loads in
  Array.iteri
    (fun i (g : Netlist.gate) ->
      let o = old.gates.(i) in
      if not (Array.length g.fanins = Array.length o.fanins
              && Array.for_all2 Int.equal g.fanins o.fanins)
      then invalid_arg "Wireload.with_netlist: another connectivity";
      if g.kind <> o.kind then
        Array.iter
          (fun f -> loads.(f) <- { (loads.(f)) with c_pins = pin_load netlist t.fanouts f })
          g.fanins)
    netlist.gates;
  { placement = { t.placement with Placer.netlist }; loads; fanouts = t.fanouts }

let c_load t i =
  let l = t.loads.(i) in
  l.c_wire +. l.c_pins
