type t = {
  domain : Rect.t;
  points : Point.t array;
  triangles : (int * int * int) array;
  areas : float array;
  centroids : Point.t array;
}

let triangle_of points (i, j, k) =
  Triangle.make points.(i) points.(j) points.(k)

let make domain points triangles =
  let np = Array.length points in
  Array.iter
    (fun (i, j, k) ->
      if i < 0 || i >= np || j < 0 || j >= np || k < 0 || k >= np then
        invalid_arg "Mesh.make: triangle index out of range")
    triangles;
  let areas =
    Array.map
      (fun tri ->
        let a = Triangle.area (triangle_of points tri) in
        if a < 1e-14 then invalid_arg "Mesh.make: degenerate triangle";
        a)
      triangles
  in
  let centroids = Array.map (fun tri -> Triangle.centroid (triangle_of points tri)) triangles in
  { domain; points; triangles; areas; centroids }

let size t = Array.length t.triangles

let triangle t i = triangle_of t.points t.triangles.(i)

let h_max t =
  Array.fold_left
    (fun acc tri -> Float.max acc (Triangle.max_side (triangle_of t.points tri)))
    0.0 t.triangles

let min_angle_deg t =
  Array.fold_left
    (fun acc tri -> Float.min acc (Triangle.min_angle_deg (triangle_of t.points tri)))
    180.0 t.triangles

let total_area t = Array.fold_left ( +. ) 0.0 t.areas

let on_boundary domain (p : Point.t) =
  let tol = 1e-9 in
  Float.abs (p.x -. domain.Rect.xmin) < tol
  || Float.abs (p.x -. domain.Rect.xmax) < tol
  || Float.abs (p.y -. domain.Rect.ymin) < tol
  || Float.abs (p.y -. domain.Rect.ymax) < tol

(* well below the mesher's 28° target: the floor catches broken meshes,
   not merely suboptimal ones *)
let min_angle_floor_deg = 10.0

let check t =
  let area_err =
    Float.abs (total_area t -. Rect.area t.domain) /. Rect.area t.domain
  in
  if area_err > 1e-6 then
    Error (Printf.sprintf "mesh area mismatch: relative error %.3e" area_err)
  else begin
    (* count undirected edge usage *)
    let edges = Hashtbl.create (3 * size t) in
    let bump u v =
      let key = (min u v, max u v) in
      Hashtbl.replace edges key (1 + Option.value ~default:0 (Hashtbl.find_opt edges key))
    in
    Array.iter
      (fun (i, j, k) ->
        bump i j;
        bump j k;
        bump k i)
      t.triangles;
    let bad = ref None in
    Hashtbl.iter
      (fun (u, v) count ->
        match count with
        | 2 -> ()
        | 1 ->
            (* hull edge: both endpoints must lie on the domain boundary *)
            if not (on_boundary t.domain t.points.(u) && on_boundary t.domain t.points.(v))
            then
              bad :=
                Some
                  (Printf.sprintf "interior edge (%d, %d) used only once" u v)
        | c -> bad := Some (Printf.sprintf "edge (%d, %d) used %d times" u v c))
      edges;
    match !bad with
    | Some msg -> Error msg
    | None ->
        let angle = min_angle_deg t in
        if angle < min_angle_floor_deg then
          Error
            (Printf.sprintf "minimum interior angle %.2f deg is below the %.0f deg floor"
               angle min_angle_floor_deg)
        else Ok ()
  end

let uniform domain ~divisions =
  if divisions <= 0 then invalid_arg "Mesh.uniform: divisions must be positive";
  let nx = divisions + 1 in
  let grid = Rect.sample_grid domain ~nx ~ny:nx in
  let centers = ref [] in
  let tris = ref [] in
  let n_grid = nx * nx in
  let center_index = ref n_grid in
  for iy = 0 to divisions - 1 do
    for ix = 0 to divisions - 1 do
      let p00 = (iy * nx) + ix in
      let p10 = p00 + 1 in
      let p01 = p00 + nx in
      let p11 = p01 + 1 in
      let c =
        Point.midpoint grid.(p00) grid.(p11)
      in
      centers := c :: !centers;
      let ci = !center_index in
      incr center_index;
      (* four CCW triangles around the cell center *)
      tris := (p00, p10, ci) :: (p10, p11, ci) :: (p11, p01, ci) :: (p01, p00, ci) :: !tris
    done
  done;
  let points = Array.append grid (Array.of_list (List.rev !centers)) in
  make domain points (Array.of_list !tris)
