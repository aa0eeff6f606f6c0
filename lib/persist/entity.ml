module K = Kernels.Kernel
module Mat = Linalg.Mat

type 'a t = {
  kind : string;
  version : int;
  encode : Codec.writer -> 'a -> unit;
  decode : Codec.reader -> 'a;
}

let corrupt fmt = Printf.ksprintf (fun m -> raise (Codec.Error m)) fmt

(* ---------------------------------------------------------------- *)
(* building blocks *)

let write_point b (p : Geometry.Point.t) =
  Codec.write_float b p.Geometry.Point.x;
  Codec.write_float b p.Geometry.Point.y

let read_point r =
  let x = Codec.read_float r in
  let y = Codec.read_float r in
  Geometry.Point.make x y

let write_rect b (rect : Geometry.Rect.t) =
  Codec.write_float b rect.Geometry.Rect.xmin;
  Codec.write_float b rect.Geometry.Rect.xmax;
  Codec.write_float b rect.Geometry.Rect.ymin;
  Codec.write_float b rect.Geometry.Rect.ymax

let read_rect r =
  let xmin = Codec.read_float r in
  let xmax = Codec.read_float r in
  let ymin = Codec.read_float r in
  let ymax = Codec.read_float r in
  try Geometry.Rect.make ~xmin ~xmax ~ymin ~ymax
  with Invalid_argument m -> corrupt "invalid rectangle: %s" m

let write_mat b m =
  let rows = Mat.rows m and cols = Mat.cols m in
  Codec.write_uint b rows;
  Codec.write_uint b cols;
  let raw = Mat.raw m in
  for i = 0 to (rows * cols) - 1 do
    Codec.write_float b (Bigarray.Array1.unsafe_get raw i)
  done

let read_mat r =
  let rows = Codec.read_uint r in
  let cols = Codec.read_uint r in
  (* bound each dimension separately: the product rows*cols*8 can overflow
     for adversarial headers and wrap past a single multiplied check *)
  let budget = Codec.remaining r / 8 in
  let fits =
    rows >= 0 && cols >= 0
    && (rows = 0 || cols = 0 || (rows <= budget && cols <= budget / rows))
  in
  if not fits then corrupt "matrix %dx%d exceeds remaining input" rows cols;
  let m =
    try Mat.create rows cols
    with Invalid_argument msg -> corrupt "invalid matrix shape %dx%d: %s" rows cols msg
  in
  let raw = Mat.raw m in
  for i = 0 to (rows * cols) - 1 do
    Bigarray.Array1.unsafe_set raw i (Codec.read_float r)
  done;
  m

(* ---------------------------------------------------------------- *)
(* kernels *)

let write_kernel b = function
  | K.Gaussian { c } ->
      Codec.write_u8 b 0;
      Codec.write_float b c
  | K.Exponential { c } ->
      Codec.write_u8 b 1;
      Codec.write_float b c
  | K.Separable_exp_l1 { c } ->
      Codec.write_u8 b 2;
      Codec.write_float b c
  | K.Radial_exponential { c } ->
      Codec.write_u8 b 3;
      Codec.write_float b c
  | K.Matern { b = mb; s } ->
      Codec.write_u8 b 4;
      Codec.write_float b mb;
      Codec.write_float b s
  | K.Linear_cone { rho } ->
      Codec.write_u8 b 5;
      Codec.write_float b rho
  | K.Spherical { rho } ->
      Codec.write_u8 b 6;
      Codec.write_float b rho
  | K.Anisotropic_gaussian { cx; cy } ->
      Codec.write_u8 b 7;
      Codec.write_float b cx;
      Codec.write_float b cy
  | K.Faulty _ ->
      invalid_arg "Persist.Entity: Faulty kernels (test decorators) are not persistable"

let read_kernel r =
  match Codec.read_u8 r with
  | 0 -> K.Gaussian { c = Codec.read_float r }
  | 1 -> K.Exponential { c = Codec.read_float r }
  | 2 -> K.Separable_exp_l1 { c = Codec.read_float r }
  | 3 -> K.Radial_exponential { c = Codec.read_float r }
  | 4 ->
      let b = Codec.read_float r in
      let s = Codec.read_float r in
      K.Matern { b; s }
  | 5 -> K.Linear_cone { rho = Codec.read_float r }
  | 6 -> K.Spherical { rho = Codec.read_float r }
  | 7 ->
      let cx = Codec.read_float r in
      let cy = Codec.read_float r in
      K.Anisotropic_gaussian { cx; cy }
  | tag -> corrupt "unknown kernel tag %d" tag

let kernel_spec k =
  let f = Printf.sprintf "%.17g" in
  match k with
  | K.Gaussian { c } -> Printf.sprintf "gaussian(c=%s)" (f c)
  | K.Exponential { c } -> Printf.sprintf "exponential(c=%s)" (f c)
  | K.Separable_exp_l1 { c } -> Printf.sprintf "separable-exp-l1(c=%s)" (f c)
  | K.Radial_exponential { c } -> Printf.sprintf "radial-exponential(c=%s)" (f c)
  | K.Matern { b; s } -> Printf.sprintf "matern(b=%s,s=%s)" (f b) (f s)
  | K.Linear_cone { rho } -> Printf.sprintf "linear-cone(rho=%s)" (f rho)
  | K.Spherical { rho } -> Printf.sprintf "spherical(rho=%s)" (f rho)
  | K.Anisotropic_gaussian { cx; cy } ->
      Printf.sprintf "anisotropic-gaussian(cx=%s,cy=%s)" (f cx) (f cy)
  | K.Faulty _ ->
      invalid_arg "Persist.Entity.kernel_spec: Faulty kernels have no stable spec"

let kernel =
  { kind = "kernel"; version = 1; encode = write_kernel; decode = read_kernel }

(* ---------------------------------------------------------------- *)
(* meshes *)

let write_mesh b (m : Geometry.Mesh.t) =
  write_rect b m.Geometry.Mesh.domain;
  Codec.write_array b write_point m.Geometry.Mesh.points;
  Codec.write_array b
    (fun b (i, j, k) ->
      Codec.write_uint b i;
      Codec.write_uint b j;
      Codec.write_uint b k)
    m.Geometry.Mesh.triangles

let read_mesh r =
  let domain = read_rect r in
  let points = Codec.read_array r read_point in
  let triangles =
    Codec.read_array r (fun r ->
        let i = Codec.read_uint r in
        let j = Codec.read_uint r in
        let k = Codec.read_uint r in
        (i, j, k))
  in
  (* Mesh.make re-derives areas/centroids and re-validates indices and
     orientation — a decoded mesh is held to the same standard as a built
     one *)
  try Geometry.Mesh.make domain points triangles
  with Invalid_argument m -> corrupt "invalid mesh: %s" m

let mesh = { kind = "mesh"; version = 1; encode = write_mesh; decode = read_mesh }

(* ---------------------------------------------------------------- *)
(* KLE eigensolutions and truncated models *)

let write_quadrature b = function
  | Kle.Galerkin.Centroid -> Codec.write_u8 b 0
  | Kle.Galerkin.Midedge -> Codec.write_u8 b 1

let read_quadrature r =
  match Codec.read_u8 r with
  | 0 -> Kle.Galerkin.Centroid
  | 1 -> Kle.Galerkin.Midedge
  | tag -> corrupt "unknown quadrature tag %d" tag

let write_solution b (s : Kle.Galerkin.solution) =
  write_mesh b s.Kle.Galerkin.mesh;
  write_kernel b s.Kle.Galerkin.kernel;
  write_quadrature b s.Kle.Galerkin.quadrature;
  Codec.write_float_array b s.Kle.Galerkin.eigenvalues;
  write_mat b s.Kle.Galerkin.coefficients

let read_solution r =
  let mesh = read_mesh r in
  let kernel = read_kernel r in
  let quadrature = read_quadrature r in
  let eigenvalues = Codec.read_float_array r in
  let coefficients = read_mat r in
  if Mat.rows coefficients <> Geometry.Mesh.size mesh then
    corrupt "solution coefficients have %d rows for a %d-triangle mesh"
      (Mat.rows coefficients) (Geometry.Mesh.size mesh);
  if Mat.cols coefficients <> Array.length eigenvalues then
    corrupt "solution has %d eigenvalues but %d coefficient columns"
      (Array.length eigenvalues) (Mat.cols coefficients);
  { Kle.Galerkin.mesh; kernel; quadrature; eigenvalues; coefficients }

let solution =
  { kind = "kle-solution"; version = 1; encode = write_solution; decode = read_solution }

let write_model b (m : Kle.Model.t) =
  write_solution b m.Kle.Model.solution;
  Codec.write_uint b m.Kle.Model.r

let read_model r =
  let sol = read_solution r in
  let rr = Codec.read_uint r in
  try Kle.Model.create ~r:rr sol
  with Invalid_argument m -> corrupt "invalid model: %s" m

let model =
  { kind = "kle-model"; version = 1; encode = write_model; decode = read_model }

(* ---------------------------------------------------------------- *)

let to_string e v =
  let b = Codec.writer () in
  e.encode b v;
  Codec.contents b

let of_string e s =
  let r = Codec.reader s in
  let v = e.decode r in
  Codec.expect_end r;
  v
