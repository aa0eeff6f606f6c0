module P = Geometry.Point
module T = Geometry.Triangle
module R = Geometry.Rect

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------- Point ---------- *)

let test_point_arith () =
  let a = P.make 1.0 2.0 and b = P.make 3.0 5.0 in
  check_close "add x" 4.0 (P.add a b).x;
  check_close "sub y" (-3.0) (P.sub a b).y;
  check_close "dot" 13.0 (P.dot a b);
  check_close "dist" 5.0 (P.dist (P.make 0.0 0.0) (P.make 3.0 4.0));
  check_close "dist l1" 7.0 (P.dist_l1 (P.make 0.0 0.0) (P.make 3.0 4.0));
  check_close "mid x" 2.0 (P.midpoint a b).x

let test_point_cross_orientation () =
  let o = P.make 0.0 0.0 and x = P.make 1.0 0.0 and y = P.make 0.0 1.0 in
  Alcotest.(check bool) "ccw positive" true (P.cross o x y > 0.0);
  Alcotest.(check bool) "cw negative" true (P.cross o y x < 0.0);
  check_close "collinear" 0.0 (P.cross o x (P.make 2.0 0.0))

(* ---------- Rect ---------- *)

let test_rect_basics () =
  let r = R.unit_die in
  check_close "area" 4.0 (R.area r);
  check_close "width" 2.0 (R.width r);
  Alcotest.(check bool) "contains center" true (R.contains r (P.make 0.0 0.0));
  Alcotest.(check bool) "excludes outside" false (R.contains r (P.make 1.5 0.0));
  Alcotest.(check bool) "boundary inclusive" true (R.contains r (P.make 1.0 1.0))

let test_rect_clamp () =
  let r = R.unit_die in
  let c = R.clamp r (P.make 5.0 (-3.0)) in
  check_close "x clamped" 1.0 c.x;
  check_close "y clamped" (-1.0) c.y

let test_rect_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Rect.make: empty rectangle")
    (fun () -> ignore (R.make ~xmin:0.0 ~xmax:0.0 ~ymin:0.0 ~ymax:1.0))

let test_rect_grid () =
  let pts = R.sample_grid R.unit_die ~nx:3 ~ny:3 in
  Alcotest.(check int) "count" 9 (Array.length pts);
  check_close "corner" (-1.0) pts.(0).x;
  check_close "center" 0.0 pts.(4).x

(* ---------- Triangle ---------- *)

let unit_right = T.make (P.make 0.0 0.0) (P.make 1.0 0.0) (P.make 0.0 1.0)

let test_triangle_area_centroid () =
  check_close "area" 0.5 (T.area unit_right);
  check_close "signed (ccw)" 1.0 (P.cross unit_right.a unit_right.b unit_right.c);
  let c = T.centroid unit_right in
  check_close "cx" (1.0 /. 3.0) c.x;
  check_close "cy" (1.0 /. 3.0) c.y

let test_triangle_orientation_sign () =
  let cw = T.make (P.make 0.0 0.0) (P.make 0.0 1.0) (P.make 1.0 0.0) in
  Alcotest.(check bool) "cw negative" true (P.cross cw.a cw.b cw.c < 0.0);
  check_close "abs area" 0.5 (T.area cw)

let test_triangle_contains () =
  Alcotest.(check bool) "inside" true (T.contains unit_right (P.make 0.2 0.2));
  Alcotest.(check bool) "outside" false (T.contains unit_right (P.make 0.8 0.8));
  Alcotest.(check bool) "vertex" true (T.contains unit_right (P.make 0.0 0.0));
  Alcotest.(check bool) "edge" true (T.contains unit_right (P.make 0.5 0.0))

let test_triangle_angles () =
  check_close ~tol:1e-9 "right isoceles min angle" 45.0 (T.min_angle_deg unit_right);
  let equilateral =
    T.make (P.make 0.0 0.0) (P.make 1.0 0.0) (P.make 0.5 (sqrt 3.0 /. 2.0))
  in
  check_close ~tol:1e-9 "equilateral" 60.0 (T.min_angle_deg equilateral)

let test_triangle_circumcenter () =
  (* circumcenter of the unit right triangle is the hypotenuse midpoint *)
  let cc = T.circumcenter unit_right in
  check_close "ccx" 0.5 cc.x;
  check_close "ccy" 0.5 cc.y;
  Array.iter
    (fun v -> check_close "radius²" 0.5 (P.dist2 cc v))
    [| unit_right.a; unit_right.b; unit_right.c |];
  let degenerate = T.make (P.make 0.0 0.0) (P.make 1.0 0.0) (P.make 2.0 0.0) in
  Alcotest.(check bool) "degenerate raises" true
    (match T.circumcenter degenerate with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_triangle_max_side () =
  check_close "hypotenuse" (sqrt 2.0) (T.max_side unit_right)

let test_triangle_barycentric_sum () =
  let p = P.make 0.3 0.1 in
  let wa, wb, wc = T.barycentric unit_right p in
  check_close "sums to 1" 1.0 (wa +. wb +. wc);
  (* reconstruct the point *)
  check_close "rebuild x" p.x ((wa *. 0.0) +. (wb *. 1.0) +. (wc *. 0.0));
  check_close "rebuild y" p.y ((wa *. 0.0) +. (wb *. 0.0) +. (wc *. 1.0))

let test_edge_midpoints () =
  let mids = T.edge_midpoints unit_right in
  Alcotest.(check int) "three" 3 (Array.length mids);
  check_close "first mid x" 0.5 mids.(0).x

(* ---------- Delaunay ---------- *)

let brute_force_delaunay_check points triangles =
  (* empty-circumcircle property: no point strictly inside any triangle's
     circumcircle *)
  let ok = ref true in
  Array.iter
    (fun (i, j, k) ->
      let tri = T.make points.(i) points.(j) points.(k) in
      match T.circumcenter tri with
      | cc ->
          let r2 = P.dist2 cc points.(i) in
          Array.iteri
            (fun l p ->
              if l <> i && l <> j && l <> k && P.dist2 cc p < r2 *. (1.0 -. 1e-9) then
                ok := false)
            points
      | exception Invalid_argument _ -> ok := false)
    triangles;
  !ok

let quasi_random_points seed n =
  Kernels.Validity.random_points ~seed ~n
    (R.make ~xmin:(-0.95) ~xmax:0.95 ~ymin:(-0.95) ~ymax:0.95)

let triangulate pts =
  let dt = Geometry.Delaunay.create R.unit_die in
  Array.iter (fun p -> ignore (Geometry.Delaunay.insert dt p)) pts;
  Geometry.Delaunay.triangles dt

let test_delaunay_square () =
  let pts =
    [| P.make (-1.0) (-1.0); P.make 1.0 (-1.0); P.make 1.0 1.0; P.make (-1.0) 1.0 |]
  in
  let tris = triangulate pts in
  Alcotest.(check int) "two triangles" 2 (Array.length tris)

let test_delaunay_empty_circumcircle () =
  let pts = quasi_random_points 3 60 in
  let tris = triangulate pts in
  Alcotest.(check bool) "delaunay property" true (brute_force_delaunay_check pts tris)

let test_delaunay_area_covers_hull () =
  (* with the 4 die corners included, triangles must cover the whole die *)
  let corners = R.corners R.unit_die in
  let pts = Array.append corners (quasi_random_points 5 40) in
  let dt = Geometry.Delaunay.create R.unit_die in
  Array.iter (fun p -> ignore (Geometry.Delaunay.insert dt p)) pts;
  let tris = Geometry.Delaunay.triangles dt in
  let total =
    Array.fold_left
      (fun acc (i, j, k) ->
        let ps = Geometry.Delaunay.points dt in
        acc +. T.area (T.make ps.(i) ps.(j) ps.(k)))
      0.0 tris
  in
  check_close ~tol:1e-9 "area" 4.0 total

let test_delaunay_duplicate_points () =
  let dt = Geometry.Delaunay.create R.unit_die in
  let i1 = Geometry.Delaunay.insert dt (P.make 0.5 0.5) in
  let i2 = Geometry.Delaunay.insert dt (P.make 0.5 0.5) in
  Alcotest.(check int) "same index" i1 i2;
  Alcotest.(check int) "one point" 1 (Geometry.Delaunay.point_count dt)

let test_delaunay_outside_raises () =
  let dt = Geometry.Delaunay.create R.unit_die in
  Alcotest.check_raises "outside"
    (Invalid_argument "Delaunay.insert: point outside bounding rectangle") (fun () ->
      ignore (Geometry.Delaunay.insert dt (P.make 2.0 0.0)))

let test_delaunay_collinear_boundary () =
  (* collinear points along an edge must not produce degenerate triangles *)
  let pts =
    Array.append (R.corners R.unit_die)
      (Array.init 5 (fun i -> P.make (-1.0 +. (0.4 *. float_of_int i)) (-1.0)))
  in
  let dt = Geometry.Delaunay.create R.unit_die in
  Array.iter (fun p -> ignore (Geometry.Delaunay.insert dt p)) pts;
  let ps = Geometry.Delaunay.points dt in
  Array.iter
    (fun (i, j, k) ->
      Alcotest.(check bool) "non-degenerate" true (T.area (T.make ps.(i) ps.(j) ps.(k)) > 1e-12))
    (Geometry.Delaunay.triangles dt)

(* ---------- Mesh ---------- *)

let test_mesh_uniform_structure () =
  let m = Geometry.Mesh.uniform R.unit_die ~divisions:4 in
  Alcotest.(check int) "4 tris per cell" (4 * 4 * 4) (Geometry.Mesh.size m);
  check_close ~tol:1e-9 "area" 4.0 (Util.Arrayx.sum m.Geometry.Mesh.areas);
  check_close ~tol:1e-9 "min angle 45" 45.0 (Geometry.Mesh.min_angle_deg m);
  Alcotest.(check bool) "check passes" true (Geometry.Mesh.check m = Ok ())

let test_mesh_degenerate_rejected () =
  let pts = [| P.make 0.0 0.0; P.make 1.0 0.0; P.make 2.0 0.0 |] in
  Alcotest.(check bool) "degenerate raises" true
    (match Geometry.Mesh.make R.unit_die pts [| (0, 1, 2) |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_mesh_bad_index_rejected () =
  let pts = [| P.make 0.0 0.0; P.make 1.0 0.0; P.make 0.0 1.0 |] in
  Alcotest.(check bool) "oob raises" true
    (match Geometry.Mesh.make R.unit_die pts [| (0, 1, 7) |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_mesh_h_max () =
  let m = Geometry.Mesh.uniform R.unit_die ~divisions:2 in
  (* cell size 1.0, longest triangle side = cell edge = 1.0 *)
  check_close ~tol:1e-12 "h" 1.0 (Geometry.Mesh.h_max m)

(* ---------- Refine ---------- *)

let test_refine_meets_constraints () =
  let r = Geometry.Refine.mesh R.unit_die ~max_area_fraction:0.01 ~min_angle_deg:28.0 in
  let m = r.Geometry.Geometry_intf.mesh in
  Alcotest.(check bool) "satisfied" true r.Geometry.Geometry_intf.satisfied;
  Alcotest.(check bool) "min angle" true (Geometry.Mesh.min_angle_deg m >= 28.0);
  let max_area = 0.01 *. 4.0 in
  Array.iter
    (fun a -> Alcotest.(check bool) "area bound" true (a <= max_area +. 1e-12))
    m.Geometry.Mesh.areas;
  Alcotest.(check bool) "structure" true (Geometry.Mesh.check m = Ok ())

let test_refine_area_scaling () =
  (* halving max area should roughly double the triangle count *)
  let n1 =
    Geometry.Mesh.size
      (Geometry.Refine.mesh R.unit_die ~max_area_fraction:0.02 ~min_angle_deg:25.0)
        .Geometry.Geometry_intf.mesh
  in
  let n2 =
    Geometry.Mesh.size
      (Geometry.Refine.mesh R.unit_die ~max_area_fraction:0.01 ~min_angle_deg:25.0)
        .Geometry.Geometry_intf.mesh
  in
  Alcotest.(check bool) (Printf.sprintf "n grows (%d -> %d)" n1 n2) true
    (n2 > n1 && n2 < 6 * n1)

let test_refine_invalid_fraction () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Refine.mesh: max_area_fraction must be positive") (fun () ->
      ignore (Geometry.Refine.mesh R.unit_die ~max_area_fraction:0.0))

let test_refine_deterministic () =
  let run () =
    Geometry.Mesh.size
      (Geometry.Refine.mesh R.unit_die ~max_area_fraction:0.01 ~min_angle_deg:28.0)
        .Geometry.Geometry_intf.mesh
  in
  Alcotest.(check int) "same size" (run ()) (run ())

let test_refine_non_square_domain () =
  let rect = R.make ~xmin:0.0 ~xmax:4.0 ~ymin:0.0 ~ymax:1.0 in
  let r = Geometry.Refine.mesh rect ~max_area_fraction:0.01 ~min_angle_deg:26.0 in
  let m = r.Geometry.Geometry_intf.mesh in
  check_close ~tol:1e-6 "area covered" 4.0 (Util.Arrayx.sum m.Geometry.Mesh.areas);
  Alcotest.(check bool) "structure" true (Geometry.Mesh.check m = Ok ())

(* points as %h, then triangles: equal digests mean byte-identical meshes *)
let mesh_digest (m : Geometry.Mesh.t) =
  let b = Buffer.create 4096 in
  Array.iter (fun (p : P.t) -> Printf.bprintf b "%h %h\n" p.x p.y) m.Geometry.Mesh.points;
  Array.iter (fun (i, j, k) -> Printf.bprintf b "%d %d %d\n" i j k) m.Geometry.Mesh.triangles;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_refine_golden () =
  (* the unit-die meshes at every mesh_frac that tests, benches and
     perfbench use, pinned by digest: a mesher rewrite must reproduce them
     byte for byte *)
  List.iter
    (fun (frac, size, digest) ->
      let m =
        (Geometry.Refine.mesh R.unit_die ~max_area_fraction:frac ~min_angle_deg:28.0)
          .Geometry.Geometry_intf.mesh
      in
      let what = Printf.sprintf "mesh_frac %g" frac in
      Alcotest.(check int) (what ^ " size") size (Geometry.Mesh.size m);
      Alcotest.(check string) (what ^ " digest") digest (mesh_digest m))
    [
      (0.05, 28, "da9ca657350c023f466799a1afffde82");
      (0.01, 158, "ecfc7c6a71ab05cd66c7d22ce27d46f3");
      (0.004, 396, "2d3b9863f39253893346808cc18ba091");
      (0.0015, 1030, "68f3d87194a25e10aca4ee38aa9071f0");
      (0.001, 1544, "1d026b41941f5cb3bc0a6d059c89e3c6");
    ]

let test_refine_major_collections () =
  (* the mesher keeps its triangles and scratch across insertions instead
     of copying them per step: meshing at 0.004 (n = 396) ran 34-40 major
     collections when it did, and none since *)
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_collections in
  ignore (Geometry.Refine.mesh R.unit_die ~max_area_fraction:0.004 ~min_angle_deg:28.0);
  let major = (Gc.quick_stat ()).Gc.major_collections - before in
  Alcotest.(check bool) (Printf.sprintf "%d major collections <= 4" major) true (major <= 4)

(* ---------- Locator ---------- *)

let test_locator_matches_brute_force () =
  let r = Geometry.Refine.mesh R.unit_die ~max_area_fraction:0.01 ~min_angle_deg:28.0 in
  let m = r.Geometry.Geometry_intf.mesh in
  let loc = Geometry.Locator.create m in
  let pts = quasi_random_points 11 200 in
  Array.iter
    (fun p ->
      match Geometry.Locator.find loc p with
      | Some ti ->
          Alcotest.(check bool) "containment verified" true
            (T.contains ~tol:1e-9 (Geometry.Mesh.triangle m ti) p)
      | None -> Alcotest.fail "locator missed an interior point")
    pts

let test_locator_outside () =
  let m = Geometry.Mesh.uniform R.unit_die ~divisions:2 in
  let loc = Geometry.Locator.create m in
  Alcotest.(check bool) "outside is None" true
    (Geometry.Locator.find loc (P.make 3.0 3.0) = None)

let test_locator_nearest_on_boundary () =
  let m = Geometry.Mesh.uniform R.unit_die ~divisions:2 in
  let loc = Geometry.Locator.create m in
  (* exact corner and clamped outside point both resolve *)
  let t1 = Geometry.Locator.find_nearest loc (P.make 1.0 1.0) in
  let t2 = Geometry.Locator.find_nearest loc (P.make 5.0 5.0) in
  Alcotest.(check bool) "valid triangles" true (t1 >= 0 && t2 >= 0 && t1 < Geometry.Mesh.size m && t2 < Geometry.Mesh.size m)

let test_locator_centroids_self () =
  let m = Geometry.Mesh.uniform R.unit_die ~divisions:3 in
  let loc = Geometry.Locator.create m in
  Array.iteri
    (fun i c ->
      match Geometry.Locator.find loc c with
      | Some ti ->
          (* centroid of i must be inside triangle ti; usually ti = i *)
          Alcotest.(check bool) "contains" true
            (T.contains ~tol:1e-9 (Geometry.Mesh.triangle m ti) c);
          ignore i
      | None -> Alcotest.fail "centroid not located")
    m.Geometry.Mesh.centroids

(* ---------- qcheck ---------- *)

let arb_point =
  QCheck.make
    QCheck.Gen.(
      let* x = float_range (-1.0) 1.0 in
      let* y = float_range (-1.0) 1.0 in
      return (x, y))
    ~print:(fun (x, y) -> Printf.sprintf "(%f, %f)" x y)

let prop_barycentric_partition =
  QCheck.Test.make ~name:"barycentric coordinates sum to 1" ~count:200 arb_point
    (fun (x, y) ->
      let wa, wb, wc = T.barycentric unit_right (P.make x y) in
      Float.abs (wa +. wb +. wc -. 1.0) < 1e-9)

let prop_contains_centroid =
  QCheck.Test.make ~name:"triangles contain their centroid" ~count:200
    (QCheck.triple arb_point arb_point arb_point)
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
      let tri = T.make (P.make ax ay) (P.make bx by) (P.make cx cy) in
      T.area tri < 1e-9 || T.contains tri (T.centroid tri))

let prop_circumcircle_through_vertices =
  QCheck.Test.make ~name:"circumcircle passes through all vertices" ~count:200
    (QCheck.triple arb_point arb_point arb_point)
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
      let tri = T.make (P.make ax ay) (P.make bx by) (P.make cx cy) in
      T.area tri < 1e-6
      ||
      let cc = T.circumcenter tri in
      let da = P.dist cc tri.T.a and db = P.dist cc tri.T.b and dc = P.dist cc tri.T.c in
      Float.abs (da -. db) < 1e-6 *. (1.0 +. da) && Float.abs (da -. dc) < 1e-6 *. (1.0 +. da))

let () =
  Alcotest.run "geometry"
    [
      ( "point",
        [
          Alcotest.test_case "arithmetic" `Quick test_point_arith;
          Alcotest.test_case "cross orientation" `Quick test_point_cross_orientation;
        ] );
      ( "rect",
        [
          Alcotest.test_case "basics" `Quick test_rect_basics;
          Alcotest.test_case "clamp" `Quick test_rect_clamp;
          Alcotest.test_case "invalid raises" `Quick test_rect_invalid;
          Alcotest.test_case "sample grid" `Quick test_rect_grid;
        ] );
      ( "triangle",
        [
          Alcotest.test_case "area and centroid" `Quick test_triangle_area_centroid;
          Alcotest.test_case "orientation sign" `Quick test_triangle_orientation_sign;
          Alcotest.test_case "containment" `Quick test_triangle_contains;
          Alcotest.test_case "angles" `Quick test_triangle_angles;
          Alcotest.test_case "circumcenter" `Quick test_triangle_circumcenter;
          Alcotest.test_case "max side" `Quick test_triangle_max_side;
          Alcotest.test_case "barycentric" `Quick test_triangle_barycentric_sum;
          Alcotest.test_case "edge midpoints" `Quick test_edge_midpoints;
        ] );
      ( "delaunay",
        [
          Alcotest.test_case "square" `Quick test_delaunay_square;
          Alcotest.test_case "empty circumcircle property" `Quick test_delaunay_empty_circumcircle;
          Alcotest.test_case "covers hull area" `Quick test_delaunay_area_covers_hull;
          Alcotest.test_case "duplicate points" `Quick test_delaunay_duplicate_points;
          Alcotest.test_case "outside raises" `Quick test_delaunay_outside_raises;
          Alcotest.test_case "collinear boundary points" `Quick test_delaunay_collinear_boundary;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "uniform structure" `Quick test_mesh_uniform_structure;
          Alcotest.test_case "degenerate rejected" `Quick test_mesh_degenerate_rejected;
          Alcotest.test_case "bad index rejected" `Quick test_mesh_bad_index_rejected;
          Alcotest.test_case "h_max" `Quick test_mesh_h_max;
        ] );
      ( "refine",
        [
          Alcotest.test_case "meets constraints" `Quick test_refine_meets_constraints;
          Alcotest.test_case "area scaling" `Quick test_refine_area_scaling;
          Alcotest.test_case "invalid fraction" `Quick test_refine_invalid_fraction;
          Alcotest.test_case "deterministic" `Quick test_refine_deterministic;
          Alcotest.test_case "non-square domain" `Quick test_refine_non_square_domain;
          Alcotest.test_case "golden meshes" `Quick test_refine_golden;
          Alcotest.test_case "major collections" `Quick test_refine_major_collections;
        ] );
      ( "locator",
        [
          Alcotest.test_case "matches brute force" `Quick test_locator_matches_brute_force;
          Alcotest.test_case "outside returns None" `Quick test_locator_outside;
          Alcotest.test_case "nearest on boundary" `Quick test_locator_nearest_on_boundary;
          Alcotest.test_case "locates all centroids" `Quick test_locator_centroids_self;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_barycentric_partition; prop_contains_centroid;
            prop_circumcircle_through_vertices ] );
    ]
