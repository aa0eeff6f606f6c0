module Mesh = Geometry.Mesh
module Kernel = Kernels.Kernel

type quadrature = Centroid | Midedge

(* K̃_ik: quadrature approximation of (1/(a_i a_k)) ∫∫ K — i.e. the mean of K
   over the element pair. Centroid rule: K(c_i, c_k). Mid-edge rule: mean of
   the 3x3 mid-edge evaluations (each triangle's 3-point rule has equal
   weights a/3). *)
let mean_kernel_value quadrature mesh kernel =
  match quadrature with
  | Centroid ->
      let centroids = mesh.Mesh.centroids in
      fun i k -> Kernel.eval kernel centroids.(i) centroids.(k)
  | Midedge ->
      let midpoints =
        Array.init (Mesh.size mesh) (fun i ->
            Geometry.Triangle.edge_midpoints (Mesh.triangle mesh i))
      in
      fun i k ->
        let mi = midpoints.(i) and mk = midpoints.(k) in
        let acc = ref 0.0 in
        for p = 0 to 2 do
          for q = 0 to 2 do
            acc := !acc +. Kernel.eval kernel mi.(p) mk.(q)
          done
        done;
        !acc /. 9.0

let domain_diameter mesh =
  let d = mesh.Mesh.domain in
  Float.hypot (Geometry.Rect.width d) (Geometry.Rect.height d)

let check_finite ?diag ~stage n out =
  let rec check i =
    if i < n then
      if Float.is_finite (Array.unsafe_get out i) then check (i + 1)
      else
        Util.Diag.fail ?sink:diag `Non_finite ~stage
          (Printf.sprintf "apply produced a non-finite entry at row %d" i)
  in
  check 0

(* the mid-edge K̃_ik through a radial table: 9 midpoint distances per pair *)
let midedge_table_pair ~n mesh tbl =
  let midpoints =
    Array.init n (fun i ->
        Geometry.Triangle.edge_midpoints (Mesh.triangle mesh i))
  in
  let mx =
    Array.init (3 * n) (fun q -> midpoints.(q / 3).(q mod 3).Geometry.Point.x)
  in
  let my =
    Array.init (3 * n) (fun q -> midpoints.(q / 3).(q mod 3).Geometry.Point.y)
  in
  fun i k ->
    let acc = ref 0.0 in
    for p = 0 to 2 do
      let xp = Array.unsafe_get mx ((3 * i) + p) in
      let yp = Array.unsafe_get my ((3 * i) + p) in
      for q = 0 to 2 do
        let dx = xp -. Array.unsafe_get mx ((3 * k) + q) in
        let dy = yp -. Array.unsafe_get my ((3 * k) + q) in
        acc := !acc +. Kernel.profile_eval tbl (sqrt ((dx *. dx) +. (dy *. dy)))
      done
    done;
    !acc /. 9.0

let hmatrix_galerkin ?(quadrature = Centroid) ?hier ?diag ?jobs mesh kernel =
  let n = Mesh.size mesh in
  let s = Array.map sqrt mesh.Mesh.areas in
  let table = Kernel.radial_profile ?diag kernel ~vmax:(domain_diameter mesh) in
  let pair =
    match (quadrature, table) with
    | Centroid, Some tbl ->
        let centroids = mesh.Mesh.centroids in
        let cx = Array.map (fun p -> p.Geometry.Point.x) centroids in
        let cy = Array.map (fun p -> p.Geometry.Point.y) centroids in
        fun i k ->
          let dx = Array.unsafe_get cx i -. Array.unsafe_get cx k in
          let dy = Array.unsafe_get cy i -. Array.unsafe_get cy k in
          Kernel.profile_eval tbl (sqrt ((dx *. dx) +. (dy *. dy)))
    | Midedge, Some tbl -> midedge_table_pair ~n mesh tbl
    | (Centroid | Midedge), None -> mean_kernel_value quadrature mesh kernel
  in
  let entry i k = pair i k *. Array.unsafe_get s i *. Array.unsafe_get s k in
  Hmatrix.build ?params:hier ?jobs ~entry mesh.Mesh.centroids

let of_hmatrix ?diag h =
  let n = Hmatrix.dim h in
  Linalg.Operator.Matrix_free
    {
      apply =
        (fun x ->
          let y = Hmatrix.apply h x in
          check_finite ?diag ~stage:"kle.operator.apply" n y;
          y);
      dim = n;
    }
