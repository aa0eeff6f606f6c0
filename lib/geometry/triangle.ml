type t = { a : Point.t; b : Point.t; c : Point.t }

let make a b c = { a; b; c }

let signed_area { a; b; c } = 0.5 *. Point.cross a b c

let area t = Float.abs (signed_area t)

let centroid { a; b; c } =
  Point.make ((a.x +. b.x +. c.x) /. 3.0) ((a.y +. b.y +. c.y) /. 3.0)

let barycentric { a; b; c } p =
  let denom = Point.cross a b c in
  if Float.abs denom < 1e-300 then invalid_arg "Triangle.barycentric: degenerate";
  let wa = Point.cross p b c /. denom in
  let wb = Point.cross a p c /. denom in
  let wc = Point.cross a b p /. denom in
  (wa, wb, wc)

let max_side { a; b; c } =
  Float.max (Point.dist a b) (Float.max (Point.dist b c) (Point.dist c a))

let contains ?(tol = 1e-12) t p =
  let scaled_tol = tol +. (1e-14 *. max_side t) in
  match barycentric t p with
  | wa, wb, wc ->
      wa >= -.scaled_tol && wb >= -.scaled_tol && wc >= -.scaled_tol
  | exception Invalid_argument _ -> false

let angle_at v p q =
  (* interior angle at vertex v between rays v->p and v->q *)
  let u = Point.sub p v and w = Point.sub q v in
  let nu = Point.norm u and nw = Point.norm w in
  if nu < 1e-300 || nw < 1e-300 then 0.0
  else begin
    let c = Point.dot u w /. (nu *. nw) in
    acos (Float.min 1.0 (Float.max (-1.0) c))
  end

let min_angle_deg { a; b; c } =
  let t1 = angle_at a b c in
  let t2 = angle_at b c a in
  let t3 = angle_at c a b in
  Float.min t1 (Float.min t2 t3) *. 180.0 /. Float.pi

let circumcenter { a; b; c } =
  let d = 2.0 *. ((a.x *. (b.y -. c.y)) +. (b.x *. (c.y -. a.y)) +. (c.x *. (a.y -. b.y))) in
  if Float.abs d < 1e-300 then invalid_arg "Triangle.circumcenter: degenerate";
  let a2 = (a.x *. a.x) +. (a.y *. a.y) in
  let b2 = (b.x *. b.x) +. (b.y *. b.y) in
  let c2 = (c.x *. c.x) +. (c.y *. c.y) in
  let ux = ((a2 *. (b.y -. c.y)) +. (b2 *. (c.y -. a.y)) +. (c2 *. (a.y -. b.y))) /. d in
  let uy = ((a2 *. (c.x -. b.x)) +. (b2 *. (a.x -. c.x)) +. (c2 *. (b.x -. a.x))) /. d in
  Point.make ux uy


let edge_midpoints { a; b; c } =
  [| Point.midpoint a b; Point.midpoint b c; Point.midpoint c a |]
