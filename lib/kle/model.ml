module Mesh = Geometry.Mesh

type t = {
  solution : Galerkin.solution;
  r : int;
  locator : Geometry.Locator.t;
}

let choose_r ?(tolerance = 0.01) ~trace eigenvalues =
  let m = Array.length eigenvalues in
  if m = 0 then invalid_arg "Model.choose_r: no eigenvalues";
  (* [head] is λ_1 + … + λ_r summed left to right; the discarded weight is
     exactly [trace - head] *)
  let rec search r head =
    if trace -. head <= tolerance *. head then r
    else if r = m then m
    else search (r + 1) (head +. eigenvalues.(r))
  in
  search 1 eigenvalues.(0)

let create ?r solution =
  let m = Array.length solution.Galerkin.eigenvalues in
  let n = Mesh.size solution.Galerkin.mesh in
  Util.Trace.with_span
    ~attrs:[ ("n", string_of_int n); ("computed", string_of_int m) ]
    "model.create"
  @@ fun () ->
  let r =
    match r with
    | Some r ->
        if r <= 0 || r > m then
          invalid_arg "Model.create: r out of range of computed eigenpairs";
        r
    | None ->
        let { Galerkin.mesh; kernel; quadrature; eigenvalues; _ } = solution in
        choose_r ~trace:(Galerkin.trace ~quadrature mesh kernel) eigenvalues
  in
  { solution; r; locator = Geometry.Locator.create solution.Galerkin.mesh }

let eigenvalues t = Array.sub t.solution.Galerkin.eigenvalues 0 t.r

(* containing triangle, falling back to the nearest triangle (with an
   [`Out_of_domain] diagnostic) for points on or just outside the die
   boundary — a gate placed exactly on the die edge must not kill a run *)
let locate ?diag ~stage t x =
  match Geometry.Locator.find t.locator x with
  | Some tri -> tri
  | None ->
      let tri = Geometry.Locator.find_nearest t.locator x in
      Util.Diag.record ?sink:diag Warning `Out_of_domain ~stage
        (Printf.sprintf
           "point (%g, %g) is outside the mesh; clamped to nearest triangle %d"
           x.Geometry.Point.x x.Geometry.Point.y tri);
      tri

let eval_eigenfunction ?diag t j x =
  if j < 0 || j >= t.r then invalid_arg "Model.eval_eigenfunction: index out of range";
  let tri = locate ?diag ~stage:"model.eval_eigenfunction" t x in
  Linalg.Mat.get t.solution.Galerkin.coefficients tri j

let reconstruct_kernel ?diag t x y =
  let stage = "model.reconstruct_kernel" in
  let tx = locate ?diag ~stage t x in
  let ty = locate ?diag ~stage t y in
  let coeffs = t.solution.Galerkin.coefficients in
  let lams = t.solution.Galerkin.eigenvalues in
  let acc = ref 0.0 in
  for j = 0 to t.r - 1 do
    acc :=
      !acc
      +. (lams.(j) *. Linalg.Mat.unsafe_get coeffs tx j *. Linalg.Mat.unsafe_get coeffs ty j)
  done;
  !acc

(* truncated-series reconstruction between two mesh elements *)
let reconstruct_at_triangles t ti tj =
  let coeffs = t.solution.Galerkin.coefficients in
  let lams = t.solution.Galerkin.eigenvalues in
  let acc = ref 0.0 in
  for j = 0 to t.r - 1 do
    acc :=
      !acc
      +. (lams.(j) *. Linalg.Mat.unsafe_get coeffs ti j *. Linalg.Mat.unsafe_get coeffs tj j)
  done;
  !acc

let nearest_centroid t p =
  let centroids = t.solution.Galerkin.mesh.Mesh.centroids in
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun i c ->
      let d = Geometry.Point.dist2 c p in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    centroids;
  !best

let reconstruction_error ?fixed t =
  let domain = t.solution.Galerkin.mesh.Mesh.domain in
  let fixed = match fixed with Some p -> p | None -> Geometry.Rect.center domain in
  let i0 = nearest_centroid t fixed in
  let centroids = t.solution.Galerkin.mesh.Mesh.centroids in
  let kernel = t.solution.Galerkin.kernel in
  let err = ref 0.0 in
  Array.iteri
    (fun j cj ->
      let e =
        Float.abs
          (reconstruct_at_triangles t i0 j
          -. Kernels.Kernel.eval kernel centroids.(i0) cj)
      in
      if e > !err then err := e)
    centroids;
  !err

let reconstruction_error_pairwise ?(stride = 7) t =
  let centroids = t.solution.Galerkin.mesh.Mesh.centroids in
  let kernel = t.solution.Galerkin.kernel in
  let n = Array.length centroids in
  let err = ref 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref 0 in
    while !j < n do
      let e =
        Float.abs
          (reconstruct_at_triangles t !i !j
          -. Kernels.Kernel.eval kernel centroids.(!i) centroids.(!j))
      in
      if e > !err then err := e;
      j := !j + stride
    done;
    i := !i + stride
  done;
  !err

let reconstruction_error_grid ?(grid = 41) ?fixed t =
  let domain = t.solution.Galerkin.mesh.Mesh.domain in
  let fixed = match fixed with Some p -> p | None -> Geometry.Rect.center domain in
  (* pull the grid slightly inside the die so every point lies in a triangle *)
  let eps = 1e-9 in
  let shrunk =
    Geometry.Rect.make
      ~xmin:(domain.Geometry.Rect.xmin +. eps)
      ~xmax:(domain.Geometry.Rect.xmax -. eps)
      ~ymin:(domain.Geometry.Rect.ymin +. eps)
      ~ymax:(domain.Geometry.Rect.ymax -. eps)
  in
  let pts = Geometry.Rect.sample_grid shrunk ~nx:grid ~ny:grid in
  Array.fold_left
    (fun acc y ->
      let err =
        Float.abs
          (reconstruct_kernel t fixed y
          -. Kernels.Kernel.eval t.solution.Galerkin.kernel fixed y)
      in
      Float.max acc err)
    0.0 pts

let captured_variance_fraction t =
  let { Galerkin.mesh; kernel; quadrature; _ } = t.solution in
  let total = Galerkin.trace ~quadrature mesh kernel in
  Util.Arrayx.sum (eigenvalues t) /. total

let d_lambda t =
  let n = Mesh.size t.solution.Galerkin.mesh in
  let coeffs = t.solution.Galerkin.coefficients in
  let lams = t.solution.Galerkin.eigenvalues in
  Linalg.Mat.init n t.r (fun i j -> Linalg.Mat.unsafe_get coeffs i j *. sqrt lams.(j))
