(* Bowyer-Watson with a super-triangle and a {e connected-cavity} insertion:
   the cavity of a new point is grown by breadth-first search over
   edge-adjacent triangles starting from the triangle containing the point,
   rather than by a global circumcircle scan. Under floating point the global
   scan can pick up spurious far-away "bad" triangles and corrupt the
   structure (the cavity must be connected and star-shaped); the BFS variant
   keeps the cavity connected by construction.

   Point indices 0..2 are the internal super-triangle vertices; public
   indices are offset by 3. Triangles are kept counter-clockwise so the
   incircle determinant has a fixed sign convention.

   Triangles live in a flat vertex array (triangle [i] is [tv.(3i)],
   [tv.(3i+1)], [tv.(3i+2)]) whose order is part of the output: after an
   insertion it holds the new cavity-boundary triangles in discovery order,
   then the surviving triangles by descending old index. The seed scan
   picks the lowest-index containing triangle, so this order fixes every
   decision of the refinement above. An insertion allocates nothing: the
   next order is written into a second buffer that is then swapped in. *)

type t = {
  rect : Rect.t;
  mutable pts : Point.t array; (* includes the 3 super vertices *)
  mutable n : int;
  mutable tv : int array; (* 3 vertex indices per triangle *)
  mutable ntri : int;
  (* scratch reused across insertions *)
  mutable next : int array; (* the order after the current insertion *)
  mutable in_cavity : Bytes.t; (* per triangle; all zero between inserts *)
  mutable cavity : int array; (* cavity triangles, also the BFS queue *)
}

let super_vertices rect =
  let cx = (Rect.center rect).x and cy = (Rect.center rect).y in
  let m = 20.0 *. Float.max (Rect.width rect) (Rect.height rect) in
  [|
    Point.make (cx -. (2.0 *. m)) (cy -. m);
    Point.make (cx +. (2.0 *. m)) (cy -. m);
    Point.make cx (cy +. (2.0 *. m));
  |]

let create rect =
  let sv = super_vertices rect in
  let pts = Array.make 64 sv.(0) in
  pts.(0) <- sv.(0);
  pts.(1) <- sv.(1);
  pts.(2) <- sv.(2);
  let cap = 128 in
  let tv = Array.make (3 * cap) 0 in
  (* super triangle must be CCW *)
  tv.(1) <- 1;
  tv.(2) <- 2;
  if Point.cross sv.(0) sv.(1) sv.(2) <= 0.0 then begin
    tv.(1) <- 2;
    tv.(2) <- 1
  end;
  {
    rect;
    pts;
    n = 3;
    tv;
    ntri = 1;
    next = Array.make (3 * cap) 0;
    in_cavity = Bytes.make cap '\000';
    cavity = Array.make cap 0;
  }

let grow t =
  if t.n = Array.length t.pts then begin
    let pts = Array.make (2 * t.n) t.pts.(0) in
    Array.blit t.pts 0 pts 0 t.n;
    t.pts <- pts
  end

(* make room for [count] triangles in every per-triangle buffer, keeping
   the current triangles and cavity marks *)
let reserve t count =
  let cap = Bytes.length t.in_cavity in
  if count > cap then begin
    let cap = max count (2 * cap) in
    let tv = Array.make (3 * cap) 0 in
    Array.blit t.tv 0 tv 0 (3 * t.ntri);
    t.tv <- tv;
    t.next <- Array.make (3 * cap) 0;
    let in_cavity = Bytes.make cap '\000' in
    Bytes.blit t.in_cavity 0 in_cavity 0 (Bytes.length t.in_cavity);
    t.in_cavity <- in_cavity;
    let cavity = Array.make cap 0 in
    Array.blit t.cavity 0 cavity 0 (Array.length t.cavity);
    t.cavity <- cavity
  end

(* incircle determinant: positive when d is strictly inside the circumcircle
   of the CCW triangle (a, b, c) *)
let incircle_det (a : Point.t) (b : Point.t) (c : Point.t) (d : Point.t) =
  let ax = a.x -. d.x and ay = a.y -. d.y in
  let bx = b.x -. d.x and by = b.y -. d.y in
  let cx = c.x -. d.x and cy = c.y -. d.y in
  let a2 = (ax *. ax) +. (ay *. ay) in
  let b2 = (bx *. bx) +. (by *. by) in
  let c2 = (cx *. cx) +. (cy *. cy) in
  let det =
    (ax *. ((by *. c2) -. (cy *. b2)))
    -. (ay *. ((bx *. c2) -. (cx *. b2)))
    +. (a2 *. ((bx *. cy) -. (cx *. by)))
  in
  (* scale of the determinant's terms, for a relative tolerance *)
  let scale = (a2 +. b2 +. c2) ** 2.0 in
  (det, scale)

let vertex t i k = t.pts.(t.tv.((3 * i) + k))

(* tolerant: a near-cocircular point counts as inside *)
let in_circumcircle t i (p : Point.t) =
  let det, scale = incircle_det (vertex t i 0) (vertex t i 1) (vertex t i 2) p in
  det > -1e-12 *. scale

(* barycentric containment, tolerant of boundary points *)
let tri_contains t i (p : Point.t) =
  let a = vertex t i 0 and b = vertex t i 1 and c = vertex t i 2 in
  let denom = Point.cross a b c in
  if Float.abs denom < 1e-300 then false
  else begin
    let tol = -1e-12 *. Float.abs denom in
    Point.cross a b p >= tol && Point.cross b c p >= tol && Point.cross c a p >= tol
  end

let has_vertex t i v =
  let tv = t.tv and o = 3 * i in
  tv.(o) = v || tv.(o + 1) = v || tv.(o + 2) = v

let has_edge t i u v = has_vertex t i u && has_vertex t i v

(* triangles [i] and [j] share an (undirected) edge *)
let adjacent t i j =
  let o = 3 * i in
  let a = t.tv.(o) and b = t.tv.(o + 1) and c = t.tv.(o + 2) in
  has_edge t j a b || has_edge t j b c || has_edge t j c a

let find_existing t p =
  let rec loop i =
    if i >= t.n then None
    else if Point.equal ~tol:1e-12 t.pts.(i) p then Some i
    else loop (i + 1)
  in
  loop 3

let is_in_cavity t i = Bytes.unsafe_get t.in_cavity i <> '\000'

(* the first triangle, in the current order, satisfying [pred] *)
let first_triangle t pred =
  let rec scan i = if i >= t.ntri then -1 else if pred i then i else scan (i + 1) in
  scan 0

(* the cavity of [p]: every triangle reachable from [seed] through
   edge-adjacent triangles whose circumcircle holds [p]; returns its size *)
let grow_cavity t seed p =
  Bytes.unsafe_set t.in_cavity seed '\001';
  t.cavity.(0) <- seed;
  let size = ref 1 and head = ref 0 in
  while !head < !size do
    let i = t.cavity.(!head) in
    incr head;
    for j = 0 to t.ntri - 1 do
      if (not (is_in_cavity t j)) && adjacent t i j && in_circumcircle t j p
      then begin
        Bytes.unsafe_set t.in_cavity j '\001';
        t.cavity.(!size) <- j;
        incr size
      end
    done
  done;
  !size

(* no cavity triangle other than [i] has the edge (u, v): covers hull edges
   and edges to triangles outside the cavity *)
let boundary_edge t ~cavity_size i u v =
  let rec scan k =
    k >= cavity_size
    ||
    let j = t.cavity.(k) in
    (j = i || not (has_edge t j u v)) && scan (k + 1)
  in
  scan 0

let insert t p =
  if not (Rect.contains ~tol:1e-9 t.rect p) then
    invalid_arg "Delaunay.insert: point outside bounding rectangle";
  match find_existing t p with
  | Some i -> i - 3
  | None ->
      grow t;
      let pi = t.n in
      t.pts.(pi) <- p;
      t.n <- t.n + 1;
      (* seed: the triangle containing p *)
      let seed = first_triangle t (fun i -> tri_contains t i p) in
      let seed =
        if seed >= 0 then seed
        else begin
          (* numerical corner case: fall back to any triangle whose
             circumcircle contains p *)
          let s = first_triangle t (fun i -> in_circumcircle t i p) in
          if s < 0 then invalid_arg "Delaunay.insert: point not inside any triangle";
          s
        end
      in
      let cavity_size = grow_cavity t seed p in
      (* the cavity's boundary edges (at most three per cavity triangle)
         become fresh triangles fanned around p *)
      reserve t (t.ntri + (2 * cavity_size));
      let next = t.next in
      let fresh = ref 0 in
      let add_boundary_edge u v =
        (* (u, v) was CCW in its cavity triangle, so (u, v, pi) is CCW when p
           is inside the cavity *)
        let o = 3 * !fresh in
        if Point.cross t.pts.(u) t.pts.(v) p > 0.0 then begin
          next.(o) <- u;
          next.(o + 1) <- v
        end
        else begin
          next.(o) <- v;
          next.(o + 1) <- u
        end;
        next.(o + 2) <- pi;
        incr fresh
      in
      for i = 0 to t.ntri - 1 do
        if is_in_cavity t i then begin
          let o = 3 * i in
          let a = t.tv.(o) and b = t.tv.(o + 1) and c = t.tv.(o + 2) in
          if boundary_edge t ~cavity_size i a b then add_boundary_edge a b;
          if boundary_edge t ~cavity_size i b c then add_boundary_edge b c;
          if boundary_edge t ~cavity_size i c a then add_boundary_edge c a
        end
      done;
      (* survivors follow, by descending old index *)
      let count = ref !fresh in
      for i = t.ntri - 1 downto 0 do
        if not (is_in_cavity t i) then begin
          Array.blit t.tv (3 * i) next (3 * !count) 3;
          incr count
        end
      done;
      for k = 0 to cavity_size - 1 do
        Bytes.unsafe_set t.in_cavity t.cavity.(k) '\000'
      done;
      t.next <- t.tv;
      t.tv <- next;
      t.ntri <- !count;
      pi - 3

let point_count t = t.n - 3

let point t i = t.pts.(i + 3)

let points t = Array.sub t.pts 3 (t.n - 3)

let iter_triangles t f =
  let tv = t.tv in
  for i = 0 to t.ntri - 1 do
    let o = 3 * i in
    let a = tv.(o) and b = tv.(o + 1) and c = tv.(o + 2) in
    if a >= 3 && b >= 3 && c >= 3 then f (a - 3) (b - 3) (c - 3)
  done

let triangles t =
  let acc = ref [] in
  iter_triangles t (fun i j k -> acc := (i, j, k) :: !acc);
  Array.of_list (List.rev !acc)
