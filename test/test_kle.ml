module K = Kernels.Kernel
module P = Geometry.Point

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* shared coarse test meshes (structured => fully deterministic) *)
let mesh_coarse = lazy (Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:6)
let mesh_fine = lazy (Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:10)

let gaussian = K.Gaussian { c = 2.8 }

let solve_coarse =
  lazy (Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense (Lazy.force mesh_coarse) gaussian)

(* ---------- Galerkin ---------- *)

let test_assemble_symmetric () =
  let c = Kle.Galerkin.assemble (Lazy.force mesh_coarse) gaussian in
  Alcotest.(check bool) "symmetric" true (Linalg.Mat.is_symmetric c)

let test_trace_equals_area () =
  (* normalized kernel: K(x,x) = 1 so the Galerkin trace is the die area *)
  check_close ~tol:1e-9 "trace" 4.0 (Kle.Galerkin.trace (Lazy.force mesh_coarse) gaussian)

let test_eigenvalues_nonnegative_descending () =
  let s = Lazy.force solve_coarse in
  let vals = s.Kle.Galerkin.eigenvalues in
  Array.iter (fun v -> Alcotest.(check bool) "nonneg" true (v >= 0.0)) vals;
  for i = 1 to Array.length vals - 1 do
    Alcotest.(check bool) "descending" true (vals.(i) <= vals.(i - 1) +. 1e-12)
  done

let test_eigenvalue_sum_equals_trace () =
  (* dense solve computes all n pairs; their sum equals the matrix trace *)
  let s = Lazy.force solve_coarse in
  check_close ~tol:1e-8 "sum = trace" 4.0 (Util.Arrayx.sum s.Kle.Galerkin.eigenvalues)

let test_eigenfunctions_l2_orthonormal () =
  let s = Lazy.force solve_coarse in
  let mesh = Lazy.force mesh_coarse in
  let n = Geometry.Mesh.size mesh in
  let d = s.Kle.Galerkin.coefficients in
  (* check the first few pairs *)
  for a = 0 to 5 do
    for b = a to 5 do
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc :=
          !acc
          +. (Linalg.Mat.get d i a *. Linalg.Mat.get d i b *. mesh.Geometry.Mesh.areas.(i))
      done;
      check_close ~tol:1e-9
        (Printf.sprintf "inner (%d, %d)" a b)
        (if a = b then 1.0 else 0.0)
        !acc
    done
  done

let test_lanczos_solver_matches_dense () =
  let mesh = Lazy.force mesh_coarse in
  let dense = Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense mesh gaussian in
  let lanczos =
    Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 20 }) mesh gaussian
  in
  for i = 0 to 19 do
    check_close ~tol:1e-8 "eigenvalue"
      dense.Kle.Galerkin.eigenvalues.(i)
      lanczos.Kle.Galerkin.eigenvalues.(i)
  done

let test_galerkin_vs_analytic_separable () =
  (* validation against Ghanem-Spanos closed form for exp(-c L1) *)
  let c = 1.0 in
  let kernel = K.Separable_exp_l1 { c } in
  let mesh = Lazy.force mesh_fine in
  let sol = Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 10 }) mesh kernel in
  let analytic = Kernels.Analytic_kle.exp_2d ~c ~rect:Geometry.Rect.unit_die ~count:10 in
  for i = 0 to 7 do
    let exact = analytic.(i).Kernels.Analytic_kle.lambda in
    let got = sol.Kle.Galerkin.eigenvalues.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "pair %d: %.4f vs %.4f" i exact got)
      true
      (Float.abs (got -. exact) /. exact < 0.05)
  done

let test_midedge_quadrature_more_accurate () =
  let c = 1.0 in
  let kernel = K.Separable_exp_l1 { c } in
  let mesh = Lazy.force mesh_coarse in
  let exact =
    (Kernels.Analytic_kle.exp_2d ~c ~rect:Geometry.Rect.unit_die ~count:1).(0)
      .Kernels.Analytic_kle.lambda
  in
  let err quad =
    let sol = Kle.Galerkin.solve ~quadrature:quad ~solver:(Kle.Galerkin.Lanczos { count = 1 }) mesh kernel in
    Float.abs (sol.Kle.Galerkin.eigenvalues.(0) -. exact)
  in
  let e_centroid = err Kle.Galerkin.Centroid in
  let e_midedge = err Kle.Galerkin.Midedge in
  Alcotest.(check bool)
    (Printf.sprintf "midedge %.2e <= centroid %.2e" e_midedge e_centroid)
    true (e_midedge <= e_centroid)

let test_eigenvalue_convergence_with_mesh () =
  (* Theorem 2: eigenvalue error decreases as h -> 0 *)
  let c = 1.0 in
  let kernel = K.Separable_exp_l1 { c } in
  let exact =
    (Kernels.Analytic_kle.exp_2d ~c ~rect:Geometry.Rect.unit_die ~count:1).(0)
      .Kernels.Analytic_kle.lambda
  in
  let err divisions =
    let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions in
    let sol = Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 1 }) mesh kernel in
    Float.abs (sol.Kle.Galerkin.eigenvalues.(0) -. exact)
  in
  let e1 = err 3 and e2 = err 9 in
  Alcotest.(check bool) (Printf.sprintf "converges (%.2e -> %.2e)" e1 e2) true (e2 < e1)

let test_indefinite_kernel_rejected () =
  (* the 2-D linear cone is indefinite on fine meshes; the solver should
     refuse rather than silently clamp a large negative spectrum *)
  let mesh = Lazy.force mesh_fine in
  let diag = Util.Diag.create () in
  let raised =
    match
      Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense ~diag mesh (K.Linear_cone { rho = 0.5 })
    with
    | _ -> false
    | exception Util.Diag.Failure e -> e.Util.Diag.code = `Not_psd
  in
  Alcotest.(check bool) "indefinite rejected with `Not_psd" true raised;
  Alcotest.(check bool) "failure recorded" true (Util.Diag.count ~code:`Not_psd diag > 0)

let test_nan_kernel_caught_at_assembly () =
  (* an injected NaN in a kernel evaluation must be caught by the Galerkin
     non-finite guard, not propagate into the eigensolver *)
  let mesh = Lazy.force mesh_coarse in
  let plan = Util.Fault.plan ~first:5 Util.Fault.Nan in
  let faulty = K.Faulty { base = gaussian; plan } in
  let diag = Util.Diag.create () in
  let raised =
    match Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense ~diag mesh faulty with
    | _ -> false
    | exception Util.Diag.Failure e ->
        e.Util.Diag.code = `Non_finite && e.Util.Diag.stage = "galerkin.assemble"
  in
  Alcotest.(check bool) "guard raised `Non_finite" true raised;
  Alcotest.(check bool) "fault actually fired" true (Util.Fault.fired plan >= 1);
  Alcotest.(check bool) "error recorded" true (Util.Diag.count ~code:`Non_finite diag > 0)

let test_nan_eigenvalue_rejected () =
  (* a one-element Lanczos run over an operator that returns NaN has a NaN
     residual, which must not count as converged: instead of handing back a
     NaN eigenvalue the solve records [`No_convergence] and falls back to
     assembly + dense QL, whose answer it returns *)
  let pt = Geometry.Point.make in
  let mesh =
    Geometry.Mesh.make Geometry.Rect.unit_die [| pt 0.0 0.0; pt 1.0 0.0; pt 0.0 1.0 |]
      [| (0, 1, 2) |]
  in
  let op = Linalg.Operator.Matrix_free { apply = (fun _ -> [| Float.nan |]); dim = 1 } in
  let diag = Util.Diag.create () in
  let sol =
    Kle.Galerkin.solve_with_operator ~solver:(Kle.Galerkin.Lanczos { count = 1 }) ~diag ~op
      mesh gaussian
  in
  Alcotest.(check bool) "NaN residual not converged" true
    (Util.Diag.count ~code:`No_convergence diag > 0);
  let dense = Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense mesh gaussian in
  Alcotest.(check (array (float 0.0))) "dense fallback answer" dense.Kle.Galerkin.eigenvalues
    sol.Kle.Galerkin.eigenvalues

let test_lanczos_no_convergence_falls_back_to_dense () =
  (* cap the Krylov budget so Lanczos genuinely fails, then check the dense
     fallback returns the same leading eigenvalues it would have computed.
     The exponential kernel's polynomially decaying spectrum (unlike the
     Gaussian's super-exponential one) keeps deep pairs unconverged in a
     tiny Krylov space. *)
  let mesh = Lazy.force mesh_coarse in
  let kernel = K.Exponential { c = 1.5 } in
  let diag = Util.Diag.create () in
  let count = 8 in
  let sol =
    Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count }) ~lanczos_max_dim:9 ~diag
      mesh kernel
  in
  Alcotest.(check bool) "no-convergence recorded" true
    (Util.Diag.count ~code:`No_convergence diag > 0);
  Alcotest.(check bool) "fallback recorded" true
    (Util.Diag.count ~code:`Degraded_fallback diag > 0);
  Alcotest.(check int) "leading pairs returned" count
    (Array.length sol.Kle.Galerkin.eigenvalues);
  let dense = Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense mesh kernel in
  Array.iteri
    (fun j v ->
      check_close ~tol:1e-9
        (Printf.sprintf "eigenvalue %d matches dense" j)
        dense.Kle.Galerkin.eigenvalues.(j) v)
    sol.Kle.Galerkin.eigenvalues

(* ---------- Model ---------- *)

let test_out_of_domain_point_clamps () =
  (* regression: a point outside the die (or exactly on the boundary,
     between triangles) used to raise bare Not_found; it must now clamp to
     the nearest triangle and record a diagnostic *)
  let model = Kle.Model.create ~r:4 (Lazy.force solve_coarse) in
  let diag = Util.Diag.create () in
  let outside = { P.x = 1.75; P.y = 0.4 } in
  let v = Kle.Model.eval_eigenfunction ~diag model 0 outside in
  Alcotest.(check bool) "finite value" true (Float.is_finite v);
  Alcotest.(check int) "clamp recorded" 1 (Util.Diag.count ~code:`Out_of_domain diag);
  (* the clamped evaluation equals the eigenfunction at the nearest
     in-domain location *)
  let inside = { P.x = 0.999; P.y = 0.4 } in
  let v_in = Kle.Model.eval_eigenfunction model 0 inside in
  check_close ~tol:1e-12 "clamps to nearest triangle" v_in v;
  (* the clamped kernel reconstruction stays total too *)
  let kv = Kle.Model.reconstruct_kernel ~diag model outside outside in
  Alcotest.(check bool) "reconstruct finite" true (Float.is_finite kv)

let test_sampler_out_of_domain_location_clamps () =
  let model = Kle.Model.create ~r:4 (Lazy.force solve_coarse) in
  let diag = Util.Diag.create () in
  let locations = [| { P.x = 0.25; P.y = 0.25 }; { P.x = -0.5; P.y = 3.0 } |] in
  let s = Kle.Sampler.create ~diag model locations in
  Alcotest.(check int) "all locations resolved" 2
    (Linalg.Mat.rows (Kle.Sampler.expansion s));
  Alcotest.(check int) "one aggregate clamp warning" 1
    (Util.Diag.count ~code:`Out_of_domain diag);
  let rng = Prng.Rng.create ~seed:5 in
  let m = Kle.Sampler.sample_matrix s rng ~n:8 in
  Alcotest.(check bool) "samples finite" true (Linalg.Mat.is_finite m)

(* the exact-tail rule, recomputed the way its contract states it *)
let rule_holds ~tolerance ~trace vals r =
  let head = ref 0.0 in
  for i = 0 to r - 1 do
    head := !head +. vals.(i)
  done;
  trace -. !head <= tolerance *. !head

let test_choose_r_rule () =
  (* eigenvalues 8, 4, 2, 1, ... fast decay, plus 0.05 of uncomputed
     spectrum: the discarded weight first falls under 1 % at r = 4 *)
  let vals = [| 8.0; 4.0; 2.0; 1.0; 0.001; 0.0005; 0.0001; 0.00005 |] in
  let trace = Util.Arrayx.sum vals +. 0.05 in
  let r = Kle.Model.choose_r ~tolerance:0.01 ~trace vals in
  Alcotest.(check int) "r" 4 r;
  Alcotest.(check bool) "rule holds at r" true (rule_holds ~tolerance:0.01 ~trace vals r);
  Alcotest.(check bool) "rule fails at r - 1" false
    (rule_holds ~tolerance:0.01 ~trace vals (r - 1))

let test_choose_r_flat_spectrum () =
  (* flat spectrum with most of the trace uncomputed: no r qualifies, so
     the rule returns m *)
  let vals = Array.make 10 1.0 in
  Alcotest.(check int) "returns m" 10 (Kle.Model.choose_r ~trace:100.0 vals)

let test_choose_r_monotone_in_tolerance () =
  let s = Lazy.force solve_coarse in
  let trace = Kle.Galerkin.trace (Lazy.force mesh_coarse) gaussian in
  let r_tight = Kle.Model.choose_r ~tolerance:0.001 ~trace s.Kle.Galerkin.eigenvalues in
  let r_loose = Kle.Model.choose_r ~tolerance:0.1 ~trace s.Kle.Galerkin.eigenvalues in
  Alcotest.(check bool)
    (Printf.sprintf "tight %d >= loose %d" r_tight r_loose)
    true (r_tight >= r_loose)

let test_choose_r_full_spectrum_trace () =
  (* with every eigenvalue computed the trace is their sum, so a truncated
     [m] picks the same r as the whole spectrum (what the pair ladder
     relies on) *)
  let s = Lazy.force solve_coarse in
  let vals = s.Kle.Galerkin.eigenvalues in
  let trace = Kle.Galerkin.trace (Lazy.force mesh_coarse) gaussian in
  check_close ~tol:1e-9 "trace = eigenvalue sum" trace (Util.Arrayx.sum vals);
  let r = Kle.Model.choose_r ~trace vals in
  Alcotest.(check bool) "r < n" true (r < Array.length vals);
  Alcotest.(check int) "leading r + 1 pairs decide the same r" r
    (Kle.Model.choose_r ~trace (Array.sub vals 0 (r + 1)))

let test_model_create_bounds () =
  let s = Lazy.force solve_coarse in
  Alcotest.(check bool) "r too large" true
    (match Kle.Model.create ~r:100000 s with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_eigenfunction_piecewise_constant () =
  let s = Lazy.force solve_coarse in
  let model = Kle.Model.create ~r:6 s in
  let mesh = Lazy.force mesh_coarse in
  (* two points in the same triangle give the same value *)
  let tri = Geometry.Mesh.triangle mesh 0 in
  let c = Geometry.Triangle.centroid tri in
  let near = P.make (c.x +. 1e-4) (c.y +. 1e-4) in
  if Geometry.Triangle.contains tri near then
    check_close ~tol:0.0 "constant on element"
      (Kle.Model.eval_eigenfunction model 0 c)
      (Kle.Model.eval_eigenfunction model 0 near)

let test_variance_at_close_to_one () =
  let s = Lazy.force solve_coarse in
  let model = Kle.Model.create ~r:40 s in
  List.iter
    (fun p ->
      (* the variance the truncated model retains: Σ_{j<r} λ_j f_j(x)² *)
      let v = Kle.Model.reconstruct_kernel model p p in
      Alcotest.(check bool) (Printf.sprintf "var %.3f in (0.5, 1.01]" v) true
        (v > 0.5 && v <= 1.01))
    [ P.make 0.0 0.0; P.make 0.5 (-0.5); P.make (-0.9) 0.9 ]

let test_captured_variance_increases_with_r () =
  let s = Lazy.force solve_coarse in
  let f r = Kle.Model.captured_variance_fraction (Kle.Model.create ~r s) in
  Alcotest.(check bool) "monotone" true (f 5 < f 20 && f 20 <= 1.0 +. 1e-9)

let test_reconstruction_error_decreases_with_r () =
  let s = Lazy.force solve_coarse in
  let e r = Kle.Model.reconstruction_error (Kle.Model.create ~r s) in
  let e5 = e 5 and e30 = e 30 in
  Alcotest.(check bool) (Printf.sprintf "e(30)=%.4f < e(5)=%.4f" e30 e5) true (e30 < e5)

let test_reconstruction_error_grid_bounded () =
  let s = Lazy.force solve_coarse in
  let model = Kle.Model.create ~r:30 s in
  let e = Kle.Model.reconstruction_error_grid ~grid:15 model in
  Alcotest.(check bool) (Printf.sprintf "grid err %.3f < 0.5" e) true (e < 0.5)

let test_reconstruction_pairwise_bounded () =
  let s = Lazy.force solve_coarse in
  let model = Kle.Model.create ~r:40 s in
  let e = Kle.Model.reconstruction_error_pairwise ~stride:5 model in
  Alcotest.(check bool) (Printf.sprintf "pairwise err %.3f < 0.25" e) true (e < 0.25)

let test_d_lambda_shape_and_scale () =
  let s = Lazy.force solve_coarse in
  let model = Kle.Model.create ~r:8 s in
  let d = Kle.Model.d_lambda model in
  Alcotest.(check int) "rows" (Geometry.Mesh.size (Lazy.force mesh_coarse)) (Linalg.Mat.rows d);
  Alcotest.(check int) "cols" 8 (Linalg.Mat.cols d);
  (* column j scaled by sqrt(lambda_j): norm² weighted by areas = lambda_j *)
  let mesh = Lazy.force mesh_coarse in
  let acc = ref 0.0 in
  for i = 0 to Linalg.Mat.rows d - 1 do
    let v = Linalg.Mat.get d i 0 in
    acc := !acc +. (v *. v *. mesh.Geometry.Mesh.areas.(i))
  done;
  check_close ~tol:1e-9 "column scale" s.Kle.Galerkin.eigenvalues.(0) !acc

(* ---------- Sampler ---------- *)

let sampler_fixture =
  lazy
    (let s = Lazy.force solve_coarse in
     let model = Kle.Model.create ~r:30 s in
     let locations =
       Kernels.Validity.random_points ~seed:9 ~n:25 Geometry.Rect.unit_die
     in
     (model, locations, Kle.Sampler.create model locations))

let test_sampler_dims () =
  let model, locations, sampler = Lazy.force sampler_fixture in
  Alcotest.(check int) "r" model.Kle.Model.r (Kle.Sampler.dim sampler);
  Alcotest.(check int) "locations" (Array.length locations)
    (Linalg.Mat.rows (Kle.Sampler.expansion sampler))

let test_sampler_triangles_contain_locations () =
  let model, locations, sampler = Lazy.force sampler_fixture in
  let mesh = model.Kle.Model.solution.Kle.Galerkin.mesh in
  Array.iteri
    (fun i p ->
      let tri = Geometry.Mesh.triangle mesh (Kle.Sampler.triangle_of_location sampler i) in
      Alcotest.(check bool) "contains" true (Geometry.Triangle.contains ~tol:1e-9 tri p))
    locations

let test_sampler_deterministic () =
  let _, _, sampler = Lazy.force sampler_fixture in
  let s1 = Kle.Sampler.sample sampler (Prng.Rng.create ~seed:5) in
  let s2 = Kle.Sampler.sample sampler (Prng.Rng.create ~seed:5) in
  Alcotest.(check (array (float 0.0))) "deterministic" s1 s2

let test_sampler_moments () =
  let _, locations, sampler = Lazy.force sampler_fixture in
  let rng = Prng.Rng.create ~seed:77 in
  let n = 30_000 in
  let m = Kle.Sampler.sample_matrix sampler rng ~n in
  Alcotest.(check int) "rows" n (Linalg.Mat.rows m);
  (* per-location mean ~ 0, variance ~ truncated kernel variance (<= 1) *)
  let cov = Stats.Correlation.column_covariance m in
  Array.iteri
    (fun g _ ->
      let v = Linalg.Mat.get cov g g in
      Alcotest.(check bool) (Printf.sprintf "var %.3f" v) true (v > 0.6 && v < 1.1))
    locations

let test_sampler_covariance_matches_kernel () =
  let _, locations, sampler = Lazy.force sampler_fixture in
  let rng = Prng.Rng.create ~seed:99 in
  let n = 30_000 in
  let m = Kle.Sampler.sample_matrix sampler rng ~n in
  let corr = Stats.Correlation.column_correlation m in
  (* compare empirical correlation to the kernel at a handful of pairs *)
  let pairs = [ (0, 1); (2, 7); (4, 15); (10, 20); (3, 24) ] in
  List.iter
    (fun (i, j) ->
      let expected = K.eval gaussian locations.(i) locations.(j) in
      let got = Linalg.Mat.get corr i j in
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d): kernel %.3f vs sampled %.3f" i j expected got)
        true
        (Float.abs (expected -. got) < 0.12))
    pairs

let test_sample_matrix_variants_agree_statistically () =
  let _, _, sampler = Lazy.force sampler_fixture in
  let n = 20_000 in
  let m1 = Kle.Sampler.sample_matrix sampler (Prng.Rng.create ~seed:1) ~n in
  let m2 = Kle.Sampler.sample_matrix sampler (Prng.Rng.create ~seed:2) ~n in
  let c1 = Stats.Correlation.column_covariance m1 in
  let c2 = Stats.Correlation.column_covariance m2 in
  Alcotest.(check bool) "same covariance" true (Linalg.Mat.max_abs_diff c1 c2 < 0.1)

let test_sample_with_xi_consistent () =
  let model, _, sampler = Lazy.force sampler_fixture in
  let field = Kle.Sampler.sample sampler (Prng.Rng.create ~seed:3) in
  (* [sample] draws its reduced-space xi first from the stream it is given *)
  let xi = Prng.Gaussian.vector (Prng.Rng.create ~seed:3) (Kle.Sampler.dim sampler) in
  Alcotest.(check int) "xi dim" model.Kle.Model.r (Array.length xi);
  (* field must equal B xi, i.e. reconstruct from xi manually *)
  let d = Kle.Model.d_lambda model in
  let mesh_field = Linalg.Mat.mul_vec d xi in
  Array.iteri
    (fun g v ->
      let tri = Kle.Sampler.triangle_of_location sampler g in
      check_close ~tol:1e-10 "field matches expansion" mesh_field.(tri) v)
    field

let test_sample_matrix_with_gaussian_equivalence () =
  (* feeding i.i.d. gaussians through sample_matrix_with must reproduce the
     statistics of the built-in samplers *)
  let _, _, sampler = Lazy.force sampler_fixture in
  let n = 15_000 in
  let xi = Prng.Gaussian.matrix (Prng.Rng.create ~seed:8) ~rows:n ~cols:(Kle.Sampler.dim sampler) in
  let m = Kle.Sampler.sample_matrix_with sampler ~xi in
  let c1 = Stats.Correlation.column_covariance m in
  let m2 = Kle.Sampler.sample_matrix sampler (Prng.Rng.create ~seed:9) ~n in
  let c2 = Stats.Correlation.column_covariance m2 in
  Alcotest.(check bool) "same covariance" true (Linalg.Mat.max_abs_diff c1 c2 < 0.12)

let test_sample_matrix_with_width_check () =
  let _, _, sampler = Lazy.force sampler_fixture in
  let xi = Linalg.Mat.create 4 3 in
  Alcotest.(check bool) "raises" true
    (match Kle.Sampler.sample_matrix_with sampler ~xi with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- Galerkin operator (H-matrix apply) ---------- *)

(* every shipped kernel family the H-matrix compresses, isotropic and not;
   the kinked families are checked to stay on the assembled path *)
let operator_kernels =
  [
    gaussian;
    K.Exponential { c = 1.5 };
    K.Matern { b = 2.0; s = 2.5 };
    K.Anisotropic_gaussian { cx = 2.0; cy = 0.7 };
  ]

let kinked_kernels =
  [
    K.Separable_exp_l1 { c = 1.0 };
    K.Radial_exponential { c = 1.2 };
    K.Linear_cone { rho = 1.0 };
    K.Spherical { rho = 1.0 };
  ]

(* small leaves so even the test meshes produce genuine far-field blocks *)
let hier_params =
  {
    Kle.Hmatrix.tol = 1e-8;
    eta = 2.0;
    leaf_size = 16;
    max_rank = 64;
  }

let random_vec seed n =
  let rng = Prng.Rng.create ~seed in
  Array.init n (fun _ -> Prng.Rng.uniform rng -. 0.5)

let galerkin_op ?quadrature ?(hier = hier_params) ?diag ?jobs mesh kernel =
  Kle.Operator.of_hmatrix ?diag
    (Kle.Operator.hmatrix_galerkin ?quadrature ~hier ?diag ?jobs mesh kernel)

(* largest row deviation of the H-matrix apply from the assembled matvec,
   relative to the largest assembled row *)
let apply_rel_error c op x =
  let y_dense = Linalg.Mat.mul_vec c x in
  let y = Linalg.Operator.apply op x in
  let scale = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1e-300 y_dense in
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. y_dense.(i)) /. scale)) y;
  !worst

let check_apply_close ~tol label c op x =
  let err = apply_rel_error c op x in
  Alcotest.(check bool) (Printf.sprintf "%s rel err %.2e <= %.0e" label err tol) true (err <= tol)

let test_operator_exact_apply_matches_assembled () =
  (* property: built from the exact shared entry rule with no admissible
     block, the H-matrix stores every entry dense, and its half-storage
     symmetric apply is the same linear map as the assembled matrix for
     every shipped kernel, kinked ones included, to 1e-12 (the paths sum
     the same products in different orders) *)
  let mesh = Lazy.force mesh_fine in
  let n = Geometry.Mesh.size mesh in
  let s = Array.map sqrt mesh.Geometry.Mesh.areas in
  List.iter
    (fun kernel ->
      let c = Kle.Galerkin.assemble mesh kernel in
      let mean = Kle.Operator.mean_kernel_value Kle.Operator.Centroid mesh kernel in
      let hm =
        Kle.Hmatrix.build ~params:{ hier_params with Kle.Hmatrix.eta = 0.0 }
          ~entry:(fun i k -> mean i k *. s.(i) *. s.(k))
          mesh.Geometry.Mesh.centroids
      in
      let stats = hm.Kle.Hmatrix.stats in
      Alcotest.(check int) "no far-field block" 0 stats.Kle.Hmatrix.far_blocks;
      Alcotest.(check bool) "off-diagonal near blocks" true (stats.Kle.Hmatrix.near_blocks > 1);
      let op = Kle.Operator.of_hmatrix hm in
      Alcotest.(check int) "dim" n (Linalg.Operator.dim op);
      for trial = 0 to 2 do
        let x = random_vec ((31 * trial) + 7) n in
        let y_dense = Linalg.Mat.mul_vec c x in
        let y = Linalg.Operator.apply op x in
        Array.iteri
          (fun i v ->
            check_close ~tol:1e-12
              (Printf.sprintf "%s row %d trial %d" (K.name kernel) i trial)
              y_dense.(i) v)
          y
      done)
    (operator_kernels @ kinked_kernels)

let test_operator_table_apply_close_to_assembled () =
  (* with the radial profile table on (the default for isotropic kernels),
     the compressed Galerkin operator stays within the table's error
     budget of the assembled map *)
  let mesh = Lazy.force mesh_fine in
  let n = Geometry.Mesh.size mesh in
  let d = mesh.Geometry.Mesh.domain in
  let vmax = Float.hypot (Geometry.Rect.width d) (Geometry.Rect.height d) in
  List.iter
    (fun kernel ->
      Alcotest.(check bool) (K.name kernel ^ " table accepted") true
        (Option.is_some (K.radial_profile kernel ~vmax));
      let c = Kle.Galerkin.assemble mesh kernel in
      let op = galerkin_op mesh kernel in
      let x = random_vec 11 n in
      let y_dense = Linalg.Mat.mul_vec c x in
      let y = Linalg.Operator.apply op x in
      Array.iteri
        (fun i v ->
          check_close ~tol:1e-7
            (Printf.sprintf "%s row %d" (K.name kernel) i)
            y_dense.(i) v)
        y)
    [ gaussian; K.Exponential { c = 1.5 }; K.Matern { b = 2.0; s = 2.5 } ]

let test_operator_apply_jobs_independent () =
  (* repo invariant: results do not depend on worker count *)
  let mesh = Lazy.force mesh_fine in
  let n = Geometry.Mesh.size mesh in
  let x = random_vec 3 n in
  let y1 = Linalg.Operator.apply (galerkin_op ~jobs:1 mesh gaussian) x in
  let y2 = Linalg.Operator.apply (galerkin_op ~jobs:2 mesh gaussian) x in
  Alcotest.(check (array (float 0.0))) "bit-identical across jobs" y1 y2

let test_operator_midedge_quadrature () =
  let mesh = Lazy.force mesh_fine in
  let c = Kle.Galerkin.assemble ~quadrature:Kle.Galerkin.Midedge mesh gaussian in
  let op = galerkin_op ~quadrature:Kle.Operator.Midedge mesh gaussian in
  check_apply_close ~tol:1e-6 "mid-edge" c op (random_vec 19 (Geometry.Mesh.size mesh))

(* above the 600-triangle switch, Auto runs Lanczos over the H-matrix: its
   eigenvalues match the assembled solve within the default ACA tolerance,
   and the solve is bit-identical at every jobs count. A kernel with an
   off-diagonal kink stays on the assembled path instead. *)
let test_matrix_free_solve_matches_assembled () =
  let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:18 in
  Alcotest.(check bool) "above the dense regime" true (Geometry.Mesh.size mesh > 600);
  let solver = Kle.Galerkin.Lanczos { count = 10 } in
  let a = Kle.Galerkin.solve ~mode:Kle.Galerkin.Assembled ~solver mesh gaussian in
  let auto jobs = Kle.Galerkin.solve ~solver ~jobs mesh gaussian in
  let m = auto 1 in
  (* the H-matrix operator differs from the assembled one by the ACA
     tolerance, so bit-equal eigenvalues would mean Auto assembled *)
  Alcotest.(check bool) "Auto took the H-matrix path" true
    (m.Kle.Galerkin.eigenvalues <> a.Kle.Galerkin.eigenvalues);
  Array.iteri
    (fun j v ->
      let rel = Float.abs (v -. m.Kle.Galerkin.eigenvalues.(j)) /. v in
      Alcotest.(check bool)
        (Printf.sprintf "eigenvalue %d rel err %.2e <= 1e-6" j rel)
        true (rel <= 1e-6))
    a.Kle.Galerkin.eigenvalues;
  let m2 = auto 2 in
  Alcotest.(check (array (float 0.0))) "eigenvalues bit-identical at -j1/-j2"
    m.Kle.Galerkin.eigenvalues m2.Kle.Galerkin.eigenvalues;
  Alcotest.(check (array (array (float 0.0)))) "eigenvectors bit-identical at -j1/-j2"
    (Linalg.Mat.to_arrays m.Kle.Galerkin.coefficients)
    (Linalg.Mat.to_arrays m2.Kle.Galerkin.coefficients);
  List.iter
    (fun kernel ->
      Alcotest.(check (array (float 0.0)))
        (K.name kernel ^ " assembled under Auto")
        (Kle.Galerkin.solve ~mode:Kle.Galerkin.Assembled ~solver mesh kernel)
          .Kle.Galerkin.eigenvalues
        (Kle.Galerkin.solve ~solver mesh kernel).Kle.Galerkin.eigenvalues)
    kinked_kernels

let test_matrix_free_fallback_chain () =
  (* Hierarchical + starved Krylov budget -> No_convergence -> assembled
     dense fallback, with both diagnostics on record *)
  let mesh = Lazy.force mesh_coarse in
  let kernel = K.Exponential { c = 1.5 } in
  let diag = Util.Diag.create () in
  let count = 8 in
  let sol =
    Kle.Galerkin.solve ~mode:Kle.Galerkin.Hierarchical
      ~solver:(Kle.Galerkin.Lanczos { count })
      ~lanczos_max_dim:9 ~diag mesh kernel
  in
  Alcotest.(check bool) "no-convergence recorded" true
    (Util.Diag.count ~code:`No_convergence diag > 0);
  Alcotest.(check bool) "fallback recorded" true
    (Util.Diag.count ~code:`Degraded_fallback diag > 0);
  Alcotest.(check int) "leading pairs returned" count
    (Array.length sol.Kle.Galerkin.eigenvalues);
  let dense = Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense mesh kernel in
  Array.iteri
    (fun j v ->
      check_close ~tol:1e-9
        (Printf.sprintf "eigenvalue %d matches dense" j)
        dense.Kle.Galerkin.eigenvalues.(j) v)
    sol.Kle.Galerkin.eigenvalues

let test_matrix_free_dense_solver_rejected () =
  let mesh = Lazy.force mesh_coarse in
  let rejected solver kernel =
    match Kle.Galerkin.solve ~mode:Kle.Galerkin.Hierarchical ~solver mesh kernel with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dense solver raises" true (rejected Kle.Galerkin.Dense gaussian);
  List.iter
    (fun kernel ->
      Alcotest.(check bool) (K.name kernel ^ " raises") true
        (rejected (Kle.Galerkin.Lanczos { count = 4 }) kernel))
    kinked_kernels

let test_operator_concurrent_applies_bit_identical () =
  (* two domains hammering one operator must see exactly the results of
     sequential applies: the apply's work vectors are per-call *)
  let mesh = Lazy.force mesh_fine in
  let n = Geometry.Mesh.size mesh in
  let op = galerkin_op ~jobs:2 mesh gaussian in
  let xs = Array.init 2 (fun i -> random_vec (100 + i) n) in
  let seq = Array.map (Linalg.Operator.apply op) xs in
  let domains =
    Array.map
      (fun x -> Domain.spawn (fun () -> Array.init 8 (fun _ -> Linalg.Operator.apply op x)))
      xs
  in
  Array.iteri
    (fun i d ->
      Array.iter
        (fun y -> Alcotest.(check (array (float 0.0))) "bit-identical" seq.(i) y)
        (Domain.join d))
    domains

(* ---------- hierarchical (H-matrix) internals ---------- *)

let test_cluster_tree_invariants () =
  let mesh = Lazy.force mesh_fine in
  let points = mesh.Geometry.Mesh.centroids in
  let n = Array.length points in
  let tree = Kle.Cluster.build ~leaf_size:16 points in
  let perm = Kle.Cluster.perm tree in
  let seen = Array.make n false in
  Array.iter (fun p -> seen.(p) <- true) perm;
  Alcotest.(check bool) "perm is a permutation" true (Array.for_all Fun.id seen);
  let rec walk idx =
    let node = Kle.Cluster.node tree idx in
    let size = node.Kle.Cluster.hi - node.Kle.Cluster.lo in
    for q = node.Kle.Cluster.lo to node.Kle.Cluster.hi - 1 do
      let p = points.(perm.(q)) in
      Alcotest.(check bool) "point inside bbox" true
        (p.P.x >= node.Kle.Cluster.xmin
        && p.P.x <= node.Kle.Cluster.xmax
        && p.P.y >= node.Kle.Cluster.ymin
        && p.P.y <= node.Kle.Cluster.ymax)
    done;
    if node.Kle.Cluster.left < 0 then
      Alcotest.(check bool) "leaf within leaf_size" true (size <= 16)
    else begin
      let l = Kle.Cluster.node tree node.Kle.Cluster.left in
      let r = Kle.Cluster.node tree node.Kle.Cluster.right in
      Alcotest.(check int) "children tile the range" size
        ((l.Kle.Cluster.hi - l.Kle.Cluster.lo) + (r.Kle.Cluster.hi - r.Kle.Cluster.lo));
      walk node.Kle.Cluster.left;
      walk node.Kle.Cluster.right
    end
  in
  walk (Kle.Cluster.root_index tree)

let test_aca_recovers_low_rank () =
  (* an exactly rank-2 matrix must be reproduced at rank <= 2 + the
     tolerance-check overshoot, to near machine precision *)
  let m = 30 and n = 25 in
  let entry i j =
    ((1.0 +. float_of_int i) *. (2.0 +. (0.1 *. float_of_int j)))
    +. (sin (float_of_int i) *. cos (float_of_int j))
  in
  match Kle.Aca.approximate ~entry ~m ~n ~tol:1e-12 ~max_rank:10 with
  | Error _ -> Alcotest.fail "ACA stalled on a rank-2 matrix"
  | Ok r ->
      Alcotest.(check bool) "rank <= 3" true (r.Kle.Aca.rank <= 3);
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0.0 in
          for c = 0 to r.Kle.Aca.rank - 1 do
            acc :=
              !acc +. (Linalg.Mat.get r.Kle.Aca.u i c *. Linalg.Mat.get r.Kle.Aca.v j c)
          done;
          check_close ~tol:1e-8 (Printf.sprintf "entry (%d, %d)" i j) (entry i j) !acc
        done
      done

let test_hmatrix_apply_matches_exact () =
  (* the compressed apply agrees with the assembled matrix to the ACA and
     radial-table tolerances (scaled by the operator norm) on every
     shipped kernel — table-backed entries for the isotropic families,
     exact evaluation for the others *)
  let mesh = Lazy.force mesh_fine in
  let n = Geometry.Mesh.size mesh in
  List.iter
    (fun kernel ->
      let c = Kle.Galerkin.assemble mesh kernel in
      let hm = Kle.Operator.hmatrix_galerkin ~hier:hier_params mesh kernel in
      Alcotest.(check bool) "some far-field compression happened" true
        (hm.Kle.Hmatrix.stats.Kle.Hmatrix.far_blocks > 0);
      let op = Kle.Operator.of_hmatrix hm in
      Alcotest.(check int) "dim" n (Linalg.Operator.dim op);
      for trial = 0 to 2 do
        check_apply_close ~tol:1e-6
          (Printf.sprintf "%s trial %d" (K.name kernel) trial)
          c op
          (random_vec ((31 * trial) + 7) n)
      done)
    operator_kernels

let test_hmatrix_build_jobs_independent () =
  (* repo invariant: the compressed operator is bit-identical for any
     worker count (fixed partition, per-block slots, sequential apply) *)
  let mesh = Lazy.force mesh_fine in
  let n = Geometry.Mesh.size mesh in
  let build jobs = Kle.Operator.hmatrix_galerkin ~hier:hier_params ~jobs mesh gaussian in
  let h1 = build 1 and h4 = build 4 in
  let x = random_vec 5 n in
  Alcotest.(check (array (float 0.0)))
    "bit-identical across jobs"
    (Kle.Hmatrix.apply h1 x) (Kle.Hmatrix.apply h4 x)

let test_hierarchical_solve_matches_assembled () =
  (* property: hierarchical-mode eigenvalues match the assembled solve
     within the requested ACA tolerance budget, across kernel families and
     mesh sizes *)
  List.iter
    (fun kernel ->
      List.iter
        (fun divisions ->
          let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions in
          let solver = Kle.Galerkin.Lanczos { count = 12 } in
          let a = Kle.Galerkin.solve ~mode:Kle.Galerkin.Assembled ~solver mesh kernel in
          let h =
            Kle.Galerkin.solve ~mode:Kle.Galerkin.Hierarchical ~hier:hier_params
              ~solver mesh kernel
          in
          Array.iteri
            (fun j v ->
              let rel = Float.abs (v -. h.Kle.Galerkin.eigenvalues.(j)) /. v in
              Alcotest.(check bool)
                (Printf.sprintf "%s div %d eigenvalue %d rel err %.2e <= 1e-6"
                   (K.name kernel) divisions j rel)
                true (rel <= 1e-6))
            a.Kle.Galerkin.eigenvalues)
        [ 8; 10; 12 ])
    [ gaussian; K.Exponential { c = 1.5 }; K.Matern { b = 2.0; s = 2.5 } ]

let test_hierarchical_aca_stall_stored_dense () =
  (* max_rank 1 at tol 1e-12 cannot converge on a genuine far-field block:
     the build still succeeds, storing the stalled blocks exactly, so the
     apply stays within the radial table's budget of the assembled map *)
  let mesh = Lazy.force mesh_fine in
  let n = Geometry.Mesh.size mesh in
  let hier = { hier_params with Kle.Hmatrix.tol = 1e-12; max_rank = 1 } in
  let hm = Kle.Operator.hmatrix_galerkin ~hier mesh gaussian in
  let stats = hm.Kle.Hmatrix.stats in
  Alcotest.(check bool) "stalled blocks counted" true (stats.Kle.Hmatrix.stalled_blocks > 0);
  Alcotest.(check bool) "stalled blocks stored near" true
    (stats.Kle.Hmatrix.stalled_blocks <= stats.Kle.Hmatrix.near_blocks);
  Alcotest.(check (result unit string)) "valid partition" (Ok ()) (Kle.Hmatrix.validate hm);
  let c = Kle.Galerkin.assemble mesh gaussian in
  check_apply_close ~tol:1e-7 "stalled build" c (Kle.Operator.of_hmatrix hm) (random_vec 29 n)

(* property: on random small meshes, kernels and cluster leaves, the
   H-matrix is a valid partition whose apply matches the assembled matrix.
   max_rank is drawn from {1, 96}, so builds with stalled far blocks
   (stored dense) are generated as well as fully compressed ones. *)
let prop_hmatrix_apply_matches_assembled =
  let kernels = Array.of_list operator_kernels in
  let gen =
    QCheck.Gen.(
      let* frac = float_range 0.02 0.1 in
      let* k = int_range 0 (Array.length kernels - 1) in
      let* leaf_size = int_range 4 16 in
      let* max_rank = oneofl [ 1; 96 ] in
      let* seed = int_range 0 10_000 in
      return (frac, k, leaf_size, max_rank, seed))
  in
  let arb =
    QCheck.make gen ~print:(fun (f, k, l, r, s) ->
        Printf.sprintf "(frac=%g, kernel=%s, leaf=%d, max_rank=%d, seed=%d)" f
          (K.name kernels.(k)) l r s)
  in
  QCheck.Test.make ~name:"H-matrix apply matches assembled on random meshes" ~count:200 arb
    (fun (frac, k, leaf_size, max_rank, seed) ->
      let mesh =
        (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:frac
           ~min_angle_deg:25.0)
          .Geometry.Geometry_intf.mesh
      in
      let kernel = kernels.(k) in
      let hier = { hier_params with Kle.Hmatrix.leaf_size; max_rank } in
      let hm = Kle.Operator.hmatrix_galerkin ~hier mesh kernel in
      let c = Kle.Galerkin.assemble mesh kernel in
      Kle.Hmatrix.validate hm = Ok ()
      && apply_rel_error c (Kle.Operator.of_hmatrix hm)
           (random_vec seed (Geometry.Mesh.size mesh))
         <= 1e-6)

let test_sample_matrix_paper_literal_bit_identical () =
  (* the default (gathered-expansion) path and the paper-literal path draw
     the same gaussians and multiply them in the same order: bit-identical *)
  let _, _, sampler = Lazy.force sampler_fixture in
  let m1 = Kle.Sampler.sample_matrix sampler (Prng.Rng.create ~seed:4) ~n:64 in
  let m2 =
    Kle.Sampler.sample_matrix ~paper_literal:true sampler (Prng.Rng.create ~seed:4)
      ~n:64
  in
  Alcotest.(check bool) "bit-identical" true (Linalg.Mat.max_abs_diff m1 m2 = 0.0)

(* ---------- P1 (piecewise-linear) extension ---------- *)

let p1_fixture =
  lazy
    (let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:6 in
     (mesh, Kle.P1.solve ~count:12 mesh gaussian))

let test_p1_mass_matrix_tiles_area () =
  let mesh, _ = Lazy.force p1_fixture in
  let m = Kle.P1.mass_matrix mesh in
  (* sum of all entries = integral of (sum of hats)^2 = die area *)
  let acc = ref 0.0 in
  for i = 0 to Linalg.Mat.rows m - 1 do
    for j = 0 to Linalg.Mat.cols m - 1 do
      acc := !acc +. Linalg.Mat.get m i j
    done
  done;
  check_close ~tol:1e-9 "area" 4.0 !acc;
  Alcotest.(check bool) "symmetric" true (Linalg.Mat.is_symmetric m)

let test_p1_eigenvalues_close_to_p0 () =
  let mesh, p1 = Lazy.force p1_fixture in
  let p0 = Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 8 }) mesh gaussian in
  for i = 0 to 7 do
    let a = p1.Kle.P1.eigenvalues.(i) and b = p0.Kle.Galerkin.eigenvalues.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "pair %d: p1 %.4f vs p0 %.4f" i a b)
      true
      (Float.abs (a -. b) /. b < 0.05)
  done

let test_p1_matches_analytic () =
  let c = 1.0 in
  let kernel = K.Separable_exp_l1 { c } in
  let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:8 in
  let sol = Kle.P1.solve ~count:6 mesh kernel in
  let exact = Kernels.Analytic_kle.exp_2d ~c ~rect:Geometry.Rect.unit_die ~count:6 in
  for i = 0 to 5 do
    let e = exact.(i).Kernels.Analytic_kle.lambda in
    Alcotest.(check bool)
      (Printf.sprintf "pair %d" i)
      true
      (Float.abs (sol.Kle.P1.eigenvalues.(i) -. e) /. e < 0.02)
  done

let test_p1_eigenfunctions_l2_orthonormal () =
  let mesh, p1 = Lazy.force p1_fixture in
  (* d^T M d' = delta via the mass matrix *)
  let m = Kle.P1.mass_matrix mesh in
  let d = p1.Kle.P1.vertex_coefficients in
  for a = 0 to 4 do
    for b = a to 4 do
      let da = Linalg.Mat.col d a and db = Linalg.Mat.col d b in
      let mdb = Linalg.Mat.mul_vec m db in
      let inner = Linalg.Vec.dot da mdb in
      check_close ~tol:1e-8
        (Printf.sprintf "inner (%d, %d)" a b)
        (if a = b then 1.0 else 0.0)
        inner
    done
  done

let test_p1_continuous_across_edges () =
  let _, p1 = Lazy.force p1_fixture in
  let ev = Kle.P1.evaluator p1 in
  (* evaluate at points straddling an interior vertical mesh line x = 0 *)
  let eps = 1e-9 in
  List.iter
    (fun y ->
      let left = Kle.P1.eval_eigenfunction ev 0 (P.make (-.eps) y) in
      let right = Kle.P1.eval_eigenfunction ev 0 (P.make eps y) in
      check_close ~tol:1e-6 "continuous" left right)
    [ -0.63; -0.21; 0.11; 0.47 ]

let test_p1_grid_reconstruction_beats_p0 () =
  let mesh, p1 = Lazy.force p1_fixture in
  let ev = Kle.P1.evaluator p1 in
  let p0 = Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 12 }) mesh gaussian in
  let m0 = Kle.Model.create ~r:12 p0 in
  let e0 = Kle.Model.reconstruction_error_grid ~grid:21 m0 in
  let e1 = Kle.P1.reconstruction_error_grid ~grid:21 ev ~r:12 in
  Alcotest.(check bool)
    (Printf.sprintf "P1 %.4f < P0 %.4f" e1 e0)
    true (e1 < e0)

let test_p1_dense_path () =
  (* count >= vertex count switches to the dense solver *)
  let mesh = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:6 in
  let sol = Kle.P1.solve mesh gaussian in
  let nv = Array.length mesh.Geometry.Mesh.points in
  Alcotest.(check int) "all pairs" nv (Array.length sol.Kle.P1.eigenvalues);
  (* the full GEP spectrum approximates the continuous trace
     integral K(x,x) = 4, up to the mid-edge quadrature error of the mesh
     (measured: 3.77 at divisions=3, 3.98 at divisions=6) *)
  check_close ~tol:0.05 "trace" 4.0 (Util.Arrayx.sum sol.Kle.P1.eigenvalues)

let test_p1_index_out_of_range () =
  let _, p1 = Lazy.force p1_fixture in
  let ev = Kle.P1.evaluator p1 in
  Alcotest.(check bool) "raises" true
    (match Kle.P1.eval_eigenfunction ev 500 (P.make 0.0 0.0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- qcheck ---------- *)

let prop_choose_r_bound_holds =
  (* on random non-increasing spectra with a random uncomputed remainder,
     the chosen r is the smallest at which the exact-tail rule holds, and
     never exceeds m *)
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 40 in
      let* decay = float_range 1.0 3.0 in
      let* rest = float_range 0.0 2.0 in
      let* tolerance = float_range 0.001 0.2 in
      return (m, decay, rest, tolerance))
  in
  let arb =
    QCheck.make gen ~print:(fun (m, d, rest, tol) ->
        Printf.sprintf "(m=%d, decay=%g, rest=%g, tol=%g)" m d rest tol)
  in
  QCheck.Test.make ~name:"choose_r bound holds on synthetic spectra (exact tail)" ~count:300
    arb (fun (m, decay, rest, tolerance) ->
      let vals = Array.init m (fun i -> decay ** float_of_int (-i)) in
      let trace = Util.Arrayx.sum vals +. rest in
      let r = Kle.Model.choose_r ~tolerance ~trace vals in
      1 <= r && r <= m
      && (r = m || rule_holds ~tolerance ~trace vals r)
      && List.for_all
           (fun r' -> not (rule_holds ~tolerance ~trace vals r'))
           (List.init (r - 1) (fun i -> i + 1)))

let () =
  Alcotest.run "kle"
    [
      ( "galerkin",
        [
          Alcotest.test_case "assemble symmetric" `Quick test_assemble_symmetric;
          Alcotest.test_case "trace equals die area" `Quick test_trace_equals_area;
          Alcotest.test_case "eigenvalues nonneg descending" `Quick test_eigenvalues_nonnegative_descending;
          Alcotest.test_case "eigenvalue sum = trace" `Quick test_eigenvalue_sum_equals_trace;
          Alcotest.test_case "eigenfunctions L2-orthonormal" `Quick test_eigenfunctions_l2_orthonormal;
          Alcotest.test_case "lanczos matches dense" `Quick test_lanczos_solver_matches_dense;
          Alcotest.test_case "matches analytic separable KLE" `Slow test_galerkin_vs_analytic_separable;
          Alcotest.test_case "midedge quadrature more accurate" `Quick test_midedge_quadrature_more_accurate;
          Alcotest.test_case "eigenvalue convergence in h" `Quick test_eigenvalue_convergence_with_mesh;
          Alcotest.test_case "indefinite kernel rejected" `Quick test_indefinite_kernel_rejected;
          Alcotest.test_case "NaN kernel caught at assembly" `Quick
            test_nan_kernel_caught_at_assembly;
          Alcotest.test_case "NaN eigenvalue rejected" `Quick test_nan_eigenvalue_rejected;
          Alcotest.test_case "lanczos no-convergence falls back to dense" `Quick
            test_lanczos_no_convergence_falls_back_to_dense;
        ] );
      ( "model",
        [
          Alcotest.test_case "out-of-domain point clamps" `Quick
            test_out_of_domain_point_clamps;
          Alcotest.test_case "out-of-domain sampler location clamps" `Quick
            test_sampler_out_of_domain_location_clamps;
          Alcotest.test_case "choose_r rule" `Quick test_choose_r_rule;
          Alcotest.test_case "choose_r flat spectrum" `Quick test_choose_r_flat_spectrum;
          Alcotest.test_case "choose_r monotone in tolerance" `Quick test_choose_r_monotone_in_tolerance;
          Alcotest.test_case "choose_r full spectrum trace" `Quick test_choose_r_full_spectrum_trace;
          Alcotest.test_case "create bounds" `Quick test_model_create_bounds;
          Alcotest.test_case "piecewise-constant eigenfunctions" `Quick test_eigenfunction_piecewise_constant;
          Alcotest.test_case "variance at points" `Quick test_variance_at_close_to_one;
          Alcotest.test_case "captured variance monotone" `Quick test_captured_variance_increases_with_r;
          Alcotest.test_case "reconstruction error decreases in r" `Quick test_reconstruction_error_decreases_with_r;
          Alcotest.test_case "grid reconstruction bounded" `Quick test_reconstruction_error_grid_bounded;
          Alcotest.test_case "pairwise reconstruction bounded" `Quick test_reconstruction_pairwise_bounded;
          Alcotest.test_case "d_lambda shape and scale" `Quick test_d_lambda_shape_and_scale;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "dimensions" `Quick test_sampler_dims;
          Alcotest.test_case "locations resolve to containing triangles" `Quick test_sampler_triangles_contain_locations;
          Alcotest.test_case "deterministic" `Quick test_sampler_deterministic;
          Alcotest.test_case "per-location variance" `Quick test_sampler_moments;
          Alcotest.test_case "covariance matches kernel" `Quick test_sampler_covariance_matches_kernel;
          Alcotest.test_case "matrix variants agree" `Quick test_sample_matrix_variants_agree_statistically;
          Alcotest.test_case "sample_with_xi consistent" `Quick test_sample_with_xi_consistent;
          Alcotest.test_case "external xi equivalence" `Quick test_sample_matrix_with_gaussian_equivalence;
          Alcotest.test_case "external xi width check" `Quick test_sample_matrix_with_width_check;
          Alcotest.test_case "paper-literal path bit-identical" `Quick
            test_sample_matrix_paper_literal_bit_identical;
        ] );
      ( "operator",
        [
          Alcotest.test_case "exact apply matches assembled (all kernels)" `Quick
            test_operator_exact_apply_matches_assembled;
          Alcotest.test_case "table apply within error budget" `Quick
            test_operator_table_apply_close_to_assembled;
          Alcotest.test_case "apply independent of jobs" `Quick
            test_operator_apply_jobs_independent;
          Alcotest.test_case "mid-edge quadrature" `Quick test_operator_midedge_quadrature;
          Alcotest.test_case "matrix-free solve matches assembled" `Quick
            test_matrix_free_solve_matches_assembled;
          Alcotest.test_case "matrix-free fallback chain" `Quick
            test_matrix_free_fallback_chain;
          Alcotest.test_case "matrix-free + dense solver rejected" `Quick
            test_matrix_free_dense_solver_rejected;
          Alcotest.test_case "concurrent applies bit-identical" `Quick
            test_operator_concurrent_applies_bit_identical;
        ] );
      ( "hierarchical",
        [
          Alcotest.test_case "cluster tree invariants" `Quick test_cluster_tree_invariants;
          Alcotest.test_case "ACA recovers a low-rank matrix" `Quick
            test_aca_recovers_low_rank;
          Alcotest.test_case "H-matrix apply matches assembled" `Quick
            test_hmatrix_apply_matches_exact;
          Alcotest.test_case "build independent of jobs" `Quick
            test_hmatrix_build_jobs_independent;
          Alcotest.test_case "hierarchical solve matches assembled" `Quick
            test_hierarchical_solve_matches_assembled;
          Alcotest.test_case "ACA stall stores blocks dense" `Quick
            test_hierarchical_aca_stall_stored_dense;
        ] );
      ( "p1",
        [
          Alcotest.test_case "mass matrix tiles area" `Quick test_p1_mass_matrix_tiles_area;
          Alcotest.test_case "eigenvalues close to P0" `Quick test_p1_eigenvalues_close_to_p0;
          Alcotest.test_case "matches analytic KLE" `Quick test_p1_matches_analytic;
          Alcotest.test_case "M-orthonormal eigenvectors" `Quick test_p1_eigenfunctions_l2_orthonormal;
          Alcotest.test_case "continuous across edges" `Quick test_p1_continuous_across_edges;
          Alcotest.test_case "grid reconstruction beats P0" `Quick test_p1_grid_reconstruction_beats_p0;
          Alcotest.test_case "dense solver path" `Quick test_p1_dense_path;
          Alcotest.test_case "index out of range" `Quick test_p1_index_out_of_range;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_choose_r_bound_holds;
          QCheck_alcotest.to_alcotest prop_hmatrix_apply_matches_assembled;
        ] );
    ]
