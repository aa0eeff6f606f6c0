type placement = {
  netlist : Netlist.t;
  locations : Geometry.Point.t array;
  die : Geometry.Rect.t;
}

(* undirected adjacency over fanin edges *)
let adjacency (netlist : Netlist.t) =
  let n = Netlist.size netlist in
  let acc = Array.make n [] in
  Array.iter
    (fun (g : Netlist.gate) ->
      Array.iter
        (fun f ->
          acc.(g.id) <- f :: acc.(g.id);
          acc.(f) <- g.id :: acc.(f))
        g.fanins)
    netlist.gates;
  Array.map Array.of_list acc

(* pin primary inputs around the die periphery, like pads *)
let pad_position (die : Geometry.Rect.t) index count =
  let t = (float_of_int index +. 0.5) /. float_of_int (max 1 count) in
  let perimeter_pos = 4.0 *. t in
  let w = Geometry.Rect.width die and h = Geometry.Rect.height die in
  if perimeter_pos < 1.0 then
    Geometry.Point.make (die.xmin +. (perimeter_pos *. w)) die.ymin
  else if perimeter_pos < 2.0 then
    Geometry.Point.make die.xmax (die.ymin +. ((perimeter_pos -. 1.0) *. h))
  else if perimeter_pos < 3.0 then
    Geometry.Point.make (die.xmax -. ((perimeter_pos -. 2.0) *. w)) die.ymax
  else Geometry.Point.make die.xmin (die.ymax -. ((perimeter_pos -. 3.0) *. h))

(* Quadratic (barycenter) placement: primary inputs are pinned to pad
   locations on the die boundary; every other gate relaxes to the mean of
   its neighbors' positions (Gauss-Seidel). This minimizes total squared
   wirelength subject to the pad anchors. *)
let quadratic_positions netlist adj die seed =
  let n = Netlist.size netlist in
  let rng = Prng.Rng.create ~seed in
  let inputs = Netlist.inputs netlist in
  let is_fixed = Array.make n false in
  let xs = Array.make n 0.0 and ys = Array.make n 0.0 in
  Array.iteri
    (fun idx g ->
      let p = pad_position die idx (Array.length inputs) in
      is_fixed.(g) <- true;
      xs.(g) <- p.Geometry.Point.x;
      ys.(g) <- p.Geometry.Point.y)
    inputs;
  (* movable gates start at jittered center positions *)
  for g = 0 to n - 1 do
    if not is_fixed.(g) then begin
      xs.(g) <- Prng.Rng.uniform_range rng ~lo:(-0.01) ~hi:0.01;
      ys.(g) <- Prng.Rng.uniform_range rng ~lo:(-0.01) ~hi:0.01
    end
  done;
  for _sweep = 1 to 120 do
    for g = 0 to n - 1 do
      if (not is_fixed.(g)) && Array.length adj.(g) > 0 then begin
        let sx = ref 0.0 and sy = ref 0.0 in
        Array.iter
          (fun nb ->
            sx := !sx +. xs.(nb);
            sy := !sy +. ys.(nb))
          adj.(g);
        let k = float_of_int (Array.length adj.(g)) in
        xs.(g) <- !sx /. k;
        ys.(g) <- !sy /. k
      end
    done
  done;
  (xs, ys)

(* Legalization by recursive median bisection on the analytic positions:
   split the gate set at the coordinate median, assign each half to one half
   of the region, recurse along the longer axis (Capo-style top-down
   spreading). Relative geometry is preserved, density becomes uniform. *)
let legalize rng positions members (die : Geometry.Rect.t) locations =
  let xs, ys = positions in
  let rec bisect members (rect : Geometry.Rect.t) =
    let m = Array.length members in
    if m = 0 then ()
    else if m <= 2 then
      Array.iter
        (fun g ->
          let x = Prng.Rng.uniform_range rng ~lo:rect.Geometry.Rect.xmin ~hi:rect.Geometry.Rect.xmax in
          let y = Prng.Rng.uniform_range rng ~lo:rect.Geometry.Rect.ymin ~hi:rect.Geometry.Rect.ymax in
          locations.(g) <- Geometry.Point.make x y)
        members
    else begin
      let horizontal = Geometry.Rect.width rect >= Geometry.Rect.height rect in
      let key = if horizontal then xs else ys in
      let sorted = Array.copy members in
      Array.sort
        (fun a b ->
          match Float.compare key.(a) key.(b) with 0 -> Int.compare a b | c -> c)
        sorted;
      let half = m / 2 in
      let left = Array.sub sorted 0 half in
      let right = Array.sub sorted half (m - half) in
      if horizontal then begin
        let xmid = 0.5 *. (rect.Geometry.Rect.xmin +. rect.Geometry.Rect.xmax) in
        bisect left
          (Geometry.Rect.make ~xmin:rect.Geometry.Rect.xmin ~xmax:xmid
             ~ymin:rect.Geometry.Rect.ymin ~ymax:rect.Geometry.Rect.ymax);
        bisect right
          (Geometry.Rect.make ~xmin:xmid ~xmax:rect.Geometry.Rect.xmax
             ~ymin:rect.Geometry.Rect.ymin ~ymax:rect.Geometry.Rect.ymax)
      end
      else begin
        let ymid = 0.5 *. (rect.Geometry.Rect.ymin +. rect.Geometry.Rect.ymax) in
        bisect left
          (Geometry.Rect.make ~xmin:rect.Geometry.Rect.xmin ~xmax:rect.Geometry.Rect.xmax
             ~ymin:rect.Geometry.Rect.ymin ~ymax:ymid);
        bisect right
          (Geometry.Rect.make ~xmin:rect.Geometry.Rect.xmin ~xmax:rect.Geometry.Rect.xmax
             ~ymin:ymid ~ymax:rect.Geometry.Rect.ymax)
      end
    end
  in
  bisect members die

let place ?(die = Geometry.Rect.unit_die) ?(seed = 1) netlist =
  let n = Netlist.size netlist in
  let adj = adjacency netlist in
  let positions = quadratic_positions netlist adj die seed in
  let locations = Array.make n (Geometry.Rect.center die) in
  let rng = Prng.Rng.create ~seed:(seed + 17) in
  legalize rng positions (Array.init n (fun i -> i)) die locations;
  { netlist; locations; die }

let hpwl_with fanouts p i =
  let sinks = fanouts.(i) in
  if Array.length sinks = 0 then 0.0
  else begin
    let loc = p.locations.(i) in
    let xmin = ref loc.Geometry.Point.x and xmax = ref loc.Geometry.Point.x in
    let ymin = ref loc.Geometry.Point.y and ymax = ref loc.Geometry.Point.y in
    Array.iter
      (fun s ->
        let l = p.locations.(s) in
        if l.Geometry.Point.x < !xmin then xmin := l.Geometry.Point.x;
        if l.Geometry.Point.x > !xmax then xmax := l.Geometry.Point.x;
        if l.Geometry.Point.y < !ymin then ymin := l.Geometry.Point.y;
        if l.Geometry.Point.y > !ymax then ymax := l.Geometry.Point.y)
      sinks;
    !xmax -. !xmin +. (!ymax -. !ymin)
  end

let hpwl_all p =
  let fanouts = Netlist.fanouts p.netlist in
  Array.init (Netlist.size p.netlist) (hpwl_with fanouts p)
