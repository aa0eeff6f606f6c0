module K = Kernels.Kernel
module P = Geometry.Point

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let origin = P.make 0.0 0.0

(* ---------- Kernel evaluation ---------- *)

let all_normalized_kernels =
  [
    K.Gaussian { c = 2.8 };
    K.Exponential { c = 1.5 };
    K.Separable_exp_l1 { c = 1.2 };
    K.Radial_exponential { c = 1.0 };
    K.Matern { b = 2.0; s = 2.5 };
    K.Linear_cone { rho = 1.0 };
    K.Spherical { rho = 1.3 };
    K.Anisotropic_gaussian { cx = 3.0; cy = 1.0 };
  ]

let test_unit_at_zero_distance () =
  List.iter
    (fun k ->
      check_close ~tol:1e-7 (K.name k) 1.0 (K.eval k (P.make 0.3 (-0.2)) (P.make 0.3 (-0.2))))
    all_normalized_kernels

let test_symmetry () =
  let x = P.make 0.4 0.7 and y = P.make (-0.6) 0.1 in
  List.iter
    (fun k -> check_close ~tol:1e-12 (K.name k) (K.eval k x y) (K.eval k y x))
    all_normalized_kernels

let test_gaussian_profile () =
  let k = K.Gaussian { c = 2.0 } in
  check_close ~tol:1e-14 "profile" (exp (-2.0)) (K.eval_distance k 1.0);
  check_close ~tol:1e-14 "eval matches profile" (exp (-2.0 *. 0.25))
    (K.eval k origin (P.make 0.5 0.0))

let test_exponential_profile () =
  let k = K.Exponential { c = 3.0 } in
  check_close ~tol:1e-14 "profile" (exp (-1.5)) (K.eval_distance k 0.5)

let test_linear_cone_clamps () =
  let k = K.Linear_cone { rho = 1.0 } in
  check_close "inside" 0.5 (K.eval_distance k 0.5);
  check_close "beyond rho" 0.0 (K.eval_distance k 1.5)

let test_spherical_support () =
  let k = K.Spherical { rho = 1.0 } in
  check_close "at rho" 0.0 (K.eval_distance k 1.0);
  check_close "beyond" 0.0 (K.eval_distance k 2.0);
  check_close ~tol:1e-12 "half" (1.0 -. 0.75 +. 0.0625) (K.eval_distance k 0.5)

let test_separable_l1_factorizes () =
  let c = 1.7 in
  let k = K.Separable_exp_l1 { c } in
  let x = P.make 0.3 0.4 and y = P.make (-0.2) 0.9 in
  let expected = exp (-.c *. Float.abs (0.3 +. 0.2)) *. exp (-.c *. Float.abs (0.4 -. 0.9)) in
  check_close ~tol:1e-14 "product form" expected (K.eval k x y)

let test_radial_exponential_pathology () =
  (* the paper's criticism of ref [2]: all points on an origin-centric circle
     are perfectly correlated *)
  let k = K.Radial_exponential { c = 2.0 } in
  let a = P.make 1.0 0.0 and b = P.make 0.0 1.0 in
  check_close ~tol:1e-14 "same radius => corr 1" 1.0 (K.eval k a b);
  Alcotest.(check bool) "different radius < 1" true (K.eval k a (P.make 0.5 0.0) < 1.0)

let test_matern_limit_and_decay () =
  let k = K.Matern { b = 2.0; s = 2.5 } in
  check_close ~tol:1e-6 "K(0) = 1" 1.0 (K.eval_distance k 0.0);
  check_close ~tol:1e-6 "K(tiny) ~ 1" 1.0 (K.eval_distance k 1e-9);
  let v1 = K.eval_distance k 0.3 and v2 = K.eval_distance k 0.8 in
  Alcotest.(check bool) "monotone decay" true (1.0 > v1 && v1 > v2 && v2 > 0.0)

let test_matern_half_integer_closed_form () =
  (* s = 1.5 => nu = 0.5: Matern profile reduces to exp(-b v) *)
  let b = 2.3 in
  let k = K.Matern { b; s = 1.5 } in
  List.iter
    (fun v -> check_close ~tol:1e-9 "exp form" (exp (-.b *. v)) (K.eval_distance k v))
    [ 0.1; 0.5; 1.2 ]

(* a kernel is isotropic exactly when it has a radial profile K(v) *)
let is_isotropic k =
  match K.eval_distance k 0.5 with _ -> true | exception Invalid_argument _ -> false

let test_isotropy_classification () =
  Alcotest.(check bool) "gaussian iso" true (is_isotropic (K.Gaussian { c = 1.0 }));
  Alcotest.(check bool) "separable not" false (is_isotropic (K.Separable_exp_l1 { c = 1.0 }));
  Alcotest.(check bool) "radial not" false (is_isotropic (K.Radial_exponential { c = 1.0 }))

let test_eval_distance_domain () =
  Alcotest.check_raises "negative" (Invalid_argument "Kernel.eval_distance: negative distance")
    (fun () -> ignore (K.eval_distance (K.Gaussian { c = 1.0 }) (-0.5)));
  Alcotest.(check bool) "non-isotropic raises" true
    (match K.eval_distance (K.Separable_exp_l1 { c = 1.0 }) 0.5 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_validate () =
  Alcotest.(check bool) "valid" true (K.validate (K.Gaussian { c = 1.0 }) = Ok ());
  Alcotest.(check bool) "bad c" true (Result.is_error (K.validate (K.Gaussian { c = 0.0 })));
  Alcotest.(check bool) "bad matern s" true
    (Result.is_error (K.validate (K.Matern { b = 1.0; s = 1.0 })))

let test_anisotropic_gaussian () =
  let k = K.Anisotropic_gaussian { cx = 4.0; cy = 1.0 } in
  (* same separation, different axis: x-axis decorrelates faster *)
  let o = origin in
  let along_x = K.eval k o (P.make 0.5 0.0) in
  let along_y = K.eval k o (P.make 0.0 0.5) in
  Alcotest.(check bool) "x decays faster" true (along_x < along_y);
  check_close ~tol:1e-14 "x value" (exp (-1.0)) along_x;
  check_close ~tol:1e-14 "y value" (exp (-0.25)) along_y;
  Alcotest.(check bool) "not isotropic" false (is_isotropic k);
  (* valid: product of two 1-D gaussian kernels *)
  Alcotest.(check bool) "PSD" true
    (Kernels.Validity.is_psd_on k
       (Kernels.Validity.random_points ~seed:6 ~n:40 Geometry.Rect.unit_die))

(* ---------- Radial profile tables ---------- *)

let die_diameter = 2.0 *. sqrt 2.0

let test_profile_table_accuracy () =
  (* the table must stay inside its advertised error bound across the whole
     domain diameter, probed densely at points incommensurate with the grid *)
  List.iter
    (fun kernel ->
      match K.radial_profile kernel ~vmax:die_diameter with
      | None -> Alcotest.failf "no table for %s" (K.name kernel)
      | Some tbl ->
          let budget = K.profile_table_max_error tbl in
          Alcotest.(check bool) "budget within tolerance" true (budget <= 1e-9);
          let worst = ref 0.0 in
          for i = 0 to 9999 do
            let v = die_diameter *. (float_of_int i +. 0.618034) /. 10000.0 in
            let err = Float.abs (K.profile_eval tbl v -. K.eval_distance kernel v) in
            worst := Float.max !worst err
          done;
          (* the guard measures on finitely many probes; allow 5x slack *)
          Alcotest.(check bool)
            (Printf.sprintf "%s worst %.2e within 5x budget" (K.name kernel) !worst)
            true
            (!worst <= 5.0 *. Float.max budget 1e-12))
    [
      K.Gaussian { c = 2.8 };
      K.Exponential { c = 1.5 };
      K.Matern { b = 2.0; s = 2.5 };
      K.Matern { b = 2.0; s = 2.3 };
      K.Spherical { rho = 1.3 };
    ]

let test_profile_table_clamps () =
  match K.radial_profile (K.Gaussian { c = 2.8 }) ~vmax:die_diameter with
  | None -> Alcotest.fail "no table"
  | Some tbl ->
      check_close ~tol:1e-15 "v=0" 1.0 (K.profile_eval tbl 0.0);
      check_close ~tol:1e-12 "beyond vmax clamps"
        (K.profile_eval tbl die_diameter)
        (K.profile_eval tbl (2.0 *. die_diameter))

let test_profile_table_rejects_kink () =
  (* the linear cone's slope kink at rho lives inside a single table
     interval; the curvature-targeted guard must find it and reject *)
  let diag = Util.Diag.create () in
  (match K.radial_profile ~diag (K.Linear_cone { rho = 1.0 }) ~vmax:die_diameter with
  | Some _ -> Alcotest.fail "kinked profile must be rejected"
  | None -> ());
  Alcotest.(check bool) "degraded fallback recorded" true
    (Util.Diag.count ~code:`Degraded_fallback diag > 0)

let test_profile_table_none_for_non_isotropic_or_faulty () =
  Alcotest.(check bool) "separable" true
    (K.radial_profile (K.Separable_exp_l1 { c = 1.0 }) ~vmax:die_diameter = None);
  let faulty =
    K.Faulty { base = K.Gaussian { c = 2.8 }; plan = Util.Fault.plan ~first:max_int Util.Fault.Nan }
  in
  Alcotest.(check bool) "faulty" true (K.radial_profile faulty ~vmax:die_diameter = None)

let test_profile_table_invalid_args () =
  Alcotest.(check bool) "bad vmax" true
    (match K.radial_profile (K.Gaussian { c = 1.0 }) ~vmax:0.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad points" true
    (match K.radial_profile ~points:1 (K.Gaussian { c = 1.0 }) ~vmax:1.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- Validity (PSD) ---------- *)

let die_points seed n = Kernels.Validity.random_points ~seed ~n Geometry.Rect.unit_die

let test_valid_kernels_psd () =
  let pts = die_points 1 40 in
  List.iter
    (fun k ->
      Alcotest.(check bool) (K.name k) true (Kernels.Validity.is_psd_on k pts))
    [
      K.Gaussian { c = 2.8 };
      K.Exponential { c = 1.5 };
      K.Separable_exp_l1 { c = 1.2 };
      K.Matern { b = 2.0; s = 2.5 };
      K.Spherical { rho = 1.0 };
    ]

let test_gram_unit_diagonal () =
  let pts = die_points 2 10 in
  let g = Kernels.Validity.gram (K.Gaussian { c = 2.0 }) pts in
  for i = 0 to 9 do
    check_close ~tol:1e-12 "diag" 1.0 (Linalg.Mat.get g i i)
  done;
  Alcotest.(check bool) "symmetric" true (Linalg.Mat.is_symmetric g)

let test_linear_cone_2d_invalid () =
  (* the isotropic linear cone is not guaranteed PSD in 2-D (the paper's
     stated reason for fitting a Gaussian instead); find a witness set *)
  let witnesses =
    List.exists
      (fun seed ->
        let pts = die_points seed 60 in
        not (Kernels.Validity.is_psd_on ~tol:1e-12 (K.Linear_cone { rho = 0.8 }) pts))
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "cone indefinite on some point set" true witnesses

(* ---------- Fit ---------- *)

let test_golden_section_quadratic () =
  let x = Kernels.Fit.golden_section ~lo:(-10.0) ~hi:10.0 (fun x -> (x -. 3.0) ** 2.0) in
  check_close ~tol:1e-6 "minimum" 3.0 x

let test_golden_section_invalid () =
  Alcotest.check_raises "bad bracket" (Invalid_argument "Fit.golden_section: requires lo < hi")
    (fun () -> ignore (Kernels.Fit.golden_section ~lo:1.0 ~hi:1.0 (fun x -> x)))

let test_gaussian_fits_cone_better () =
  (* Fig 3(a): Gaussian fit beats exponential fit on the linear cone *)
  let g = Kernels.Fit.fit_gaussian_to_cone ~dim:`D1 ~rho:1.0 ~vmax:2.0 () in
  let e = Kernels.Fit.fit_exponential_to_cone ~dim:`D1 ~rho:1.0 ~vmax:2.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "gaussian sse %.4f < exponential sse %.4f" g.Kernels.Fit.sse
       e.Kernels.Fit.sse)
    true
    (g.Kernels.Fit.sse < e.Kernels.Fit.sse)

let test_fit_recovers_self () =
  (* fitting a Gaussian to an exact Gaussian profile recovers c *)
  let target v = exp (-2.5 *. v *. v) in
  let fit =
    Kernels.Fit.fit_profile_1d
      ~family:(fun c -> K.Gaussian { c })
      ~target ~vmax:2.0 ~lo:0.1 ~hi:10.0 ()
  in
  (match fit.Kernels.Fit.kernel with
  | K.Gaussian { c } -> check_close ~tol:1e-5 "c recovered" 2.5 c
  | _ -> Alcotest.fail "wrong family");
  check_close ~tol:1e-9 "sse ~ 0" 0.0 fit.Kernels.Fit.sse

let test_paper_gaussian_reasonable () =
  match Kernels.Fit.paper_gaussian () with
  | K.Gaussian { c } ->
      Alcotest.(check bool) (Printf.sprintf "c = %.3f in [1, 6]" c) true (c > 1.0 && c < 6.0)
  | _ -> Alcotest.fail "expected a gaussian"

(* ---------- Analytic KLE ---------- *)

let test_analytic_1d_transcendental_roots () =
  let c = 1.0 and a = 1.0 in
  let pairs = Kernels.Analytic_kle.exp_1d ~c ~half_width:a ~count:6 in
  Array.iter
    (fun p ->
      let w = p.Kernels.Analytic_kle.omega in
      match p.Kernels.Analytic_kle.parity with
      | Kernels.Analytic_kle.Even ->
          check_close ~tol:1e-6 "even root" 0.0 (c -. (w *. tan (w *. a)))
      | Kernels.Analytic_kle.Odd ->
          check_close ~tol:1e-6 "odd root" 0.0 (w +. (c *. tan (w *. a))))
    pairs

let test_analytic_1d_descending_eigenvalues () =
  let pairs = Kernels.Analytic_kle.exp_1d ~c:1.0 ~half_width:1.0 ~count:10 in
  for i = 1 to 9 do
    Alcotest.(check bool) "descending" true
      (pairs.(i).Kernels.Analytic_kle.lambda <= pairs.(i - 1).Kernels.Analytic_kle.lambda)
  done

let test_analytic_1d_eigenfunctions_orthonormal () =
  let a = 1.0 in
  let pairs = Kernels.Analytic_kle.exp_1d ~c:1.0 ~half_width:a ~count:4 in
  (* numerical integration on [-a, a] *)
  let integrate f =
    let n = 2000 in
    let h = 2.0 *. a /. float_of_int n in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let x = -.a +. ((float_of_int i +. 0.5) *. h) in
      acc := !acc +. (f x *. h)
    done;
    !acc
  in
  Array.iteri
    (fun i p ->
      let norm =
        integrate (fun x ->
            Kernels.Analytic_kle.eval_1d p x *. Kernels.Analytic_kle.eval_1d p x)
      in
      check_close ~tol:1e-4 "unit norm" 1.0 norm;
      Array.iteri
        (fun j q ->
          if j > i then begin
            let ortho =
              integrate (fun x ->
                  Kernels.Analytic_kle.eval_1d p x *. Kernels.Analytic_kle.eval_1d q x)
            in
            check_close ~tol:1e-4 "orthogonal" 0.0 ortho
          end)
        pairs)
    pairs

let test_analytic_1d_mercer () =
  (* K(x, y) ~ sum lambda f(x) f(y) with enough terms *)
  let c = 1.0 and a = 1.0 in
  let pairs = Kernels.Analytic_kle.exp_1d ~c ~half_width:a ~count:200 in
  let recon x y =
    Array.fold_left
      (fun acc (p : Kernels.Analytic_kle.eigenpair_1d) ->
        acc
        +. (p.Kernels.Analytic_kle.lambda *. Kernels.Analytic_kle.eval_1d p x
           *. Kernels.Analytic_kle.eval_1d p y))
      0.0 pairs
  in
  List.iter
    (fun (x, y) ->
      check_close ~tol:6e-3 "mercer" (exp (-.c *. Float.abs (x -. y))) (recon x y))
    [ (0.0, 0.0); (0.3, -0.4); (-0.8, 0.5) ]

let test_analytic_2d_product_structure () =
  let pairs = Kernels.Analytic_kle.exp_2d ~c:1.0 ~rect:Geometry.Rect.unit_die ~count:10 in
  Alcotest.(check int) "count" 10 (Array.length pairs);
  (* descending *)
  for i = 1 to 9 do
    Alcotest.(check bool) "descending" true
      (pairs.(i).Kernels.Analytic_kle.lambda <= pairs.(i - 1).Kernels.Analytic_kle.lambda)
  done;
  (* top eigenvalue is the square of the top 1-D eigenvalue *)
  let one_d = Kernels.Analytic_kle.exp_1d ~c:1.0 ~half_width:1.0 ~count:1 in
  check_close ~tol:1e-9 "top is product"
    (one_d.(0).Kernels.Analytic_kle.lambda ** 2.0)
    pairs.(0).Kernels.Analytic_kle.lambda

let test_analytic_2d_kernel_reconstruction () =
  let c = 1.0 in
  let pairs = Kernels.Analytic_kle.exp_2d ~c ~rect:Geometry.Rect.unit_die ~count:600 in
  let k = K.Separable_exp_l1 { c } in
  List.iter
    (fun (x, y) ->
      let expected = K.eval k x y in
      let got = Kernels.Analytic_kle.reconstruct_kernel ~rect:Geometry.Rect.unit_die pairs x y in
      check_close ~tol:0.05 "2d mercer" expected got)
    [ (origin, origin); (P.make 0.3 0.2, P.make (-0.1) 0.4) ]

(* ---------- Extract ---------- *)

let extraction_fixture =
  lazy
    (let truth = K.Gaussian { c = 2.8 } in
     let locations = Kernels.Validity.random_points ~seed:3 ~n:80 Geometry.Rect.unit_die in
     let gram = Kernels.Validity.gram truth locations in
     let mvn = Prng.Mvn.of_covariance gram in
     let samples = Prng.Mvn.sample_matrix mvn (Prng.Rng.create ~seed:5) ~n:250 in
     (truth, locations, samples))

let test_correlogram_shape () =
  let _, locations, samples = Lazy.force extraction_fixture in
  let cg = Kernels.Extract.empirical_correlogram ~locations ~samples ~bins:10 () in
  Alcotest.(check int) "bins" 10 (Array.length cg.Kernels.Extract.distances);
  (* all pairs counted exactly once *)
  let n = Array.length locations in
  Alcotest.(check int) "pair count" (n * (n - 1) / 2)
    (Array.fold_left ( + ) 0 cg.Kernels.Extract.counts);
  (* short-distance bins show high correlation, long-distance low *)
  Alcotest.(check bool) "near corr high" true (cg.Kernels.Extract.correlations.(0) > 0.7);
  Alcotest.(check bool) "monotone-ish" true
    (cg.Kernels.Extract.correlations.(0) > cg.Kernels.Extract.correlations.(8))

let test_correlogram_matches_kernel () =
  let truth, locations, samples = Lazy.force extraction_fixture in
  let cg = Kernels.Extract.empirical_correlogram ~locations ~samples ~bins:10 () in
  Array.iteri
    (fun b d ->
      if cg.Kernels.Extract.counts.(b) > 30 then begin
        let expected = K.eval_distance truth d in
        let got = cg.Kernels.Extract.correlations.(b) in
        Alcotest.(check bool)
          (Printf.sprintf "bin %d: %.3f vs %.3f" b expected got)
          true
          (Float.abs (expected -. got) < 0.12)
      end)
    cg.Kernels.Extract.distances

let test_extract_recovers_truth () =
  let _, locations, samples = Lazy.force extraction_fixture in
  let results = Kernels.Extract.extract ~locations ~samples () in
  match List.find_opt (fun (e : Kernels.Extract.extraction) -> e.valid) results with
  | None -> Alcotest.fail "no valid kernel extracted"
  | Some best -> (
      match best.kernel with
      | K.Gaussian { c } ->
          Alcotest.(check bool) (Printf.sprintf "c = %.3f near 2.8" c) true
            (Float.abs (c -. 2.8) < 0.5)
      | k -> Alcotest.failf "wrong family extracted: %s" (K.name k))

let test_extract_sorted_by_sse () =
  let _, locations, samples = Lazy.force extraction_fixture in
  let results = Kernels.Extract.extract ~locations ~samples () in
  let sses = List.map (fun (e : Kernels.Extract.extraction) -> e.sse) results in
  Alcotest.(check bool) "sorted" true (List.sort Float.compare sses = sses)

let test_correlogram_input_validation () =
  let _, locations, _ = Lazy.force extraction_fixture in
  let bad = Linalg.Mat.create 2 (Array.length locations) in
  Alcotest.(check bool) "too few rows" true
    (match Kernels.Extract.empirical_correlogram ~locations ~samples:bad () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- qcheck ---------- *)

let arb_dist = QCheck.float_range 0.0 2.0

let prop_kernels_bounded =
  QCheck.Test.make ~name:"isotropic kernels in [0, 1]" ~count:200 arb_dist (fun v ->
      List.for_all
        (fun k ->
          let x = K.eval_distance k v in
          x >= -1e-12 && x <= 1.0 +. 1e-9)
        [ K.Gaussian { c = 2.8 }; K.Exponential { c = 1.5 };
          K.Matern { b = 2.0; s = 2.5 }; K.Spherical { rho = 1.0 } ])

let prop_kernels_monotone =
  QCheck.Test.make ~name:"isotropic kernels decay monotonically" ~count:200
    (QCheck.pair arb_dist arb_dist) (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      List.for_all
        (fun k -> K.eval_distance k lo +. 1e-12 >= K.eval_distance k hi)
        [ K.Gaussian { c = 2.8 }; K.Exponential { c = 1.5 };
          K.Matern { b = 2.0; s = 3.0 }; K.Spherical { rho = 1.2 };
          K.Linear_cone { rho = 1.0 } ])

let () =
  Alcotest.run "kernels"
    [
      ( "kernel",
        [
          Alcotest.test_case "unit at zero distance" `Quick test_unit_at_zero_distance;
          Alcotest.test_case "symmetry" `Quick test_symmetry;
          Alcotest.test_case "gaussian profile" `Quick test_gaussian_profile;
          Alcotest.test_case "exponential profile" `Quick test_exponential_profile;
          Alcotest.test_case "linear cone clamps" `Quick test_linear_cone_clamps;
          Alcotest.test_case "spherical support" `Quick test_spherical_support;
          Alcotest.test_case "separable L1 factorizes" `Quick test_separable_l1_factorizes;
          Alcotest.test_case "radial-exp pathology (ref [2])" `Quick test_radial_exponential_pathology;
          Alcotest.test_case "matern limit and decay" `Quick test_matern_limit_and_decay;
          Alcotest.test_case "matern s=1.5 closed form" `Quick test_matern_half_integer_closed_form;
          Alcotest.test_case "isotropy classification" `Quick test_isotropy_classification;
          Alcotest.test_case "anisotropic gaussian" `Quick test_anisotropic_gaussian;
          Alcotest.test_case "eval_distance domain" `Quick test_eval_distance_domain;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "profile_table",
        [
          Alcotest.test_case "accuracy across the die diameter" `Quick
            test_profile_table_accuracy;
          Alcotest.test_case "clamps at 0 and vmax" `Quick test_profile_table_clamps;
          Alcotest.test_case "rejects kinked profile" `Quick test_profile_table_rejects_kink;
          Alcotest.test_case "none for non-isotropic or faulty" `Quick
            test_profile_table_none_for_non_isotropic_or_faulty;
          Alcotest.test_case "invalid arguments" `Quick test_profile_table_invalid_args;
        ] );
      ( "validity",
        [
          Alcotest.test_case "valid kernels are PSD" `Quick test_valid_kernels_psd;
          Alcotest.test_case "gram unit diagonal" `Quick test_gram_unit_diagonal;
          Alcotest.test_case "2-D linear cone can be indefinite" `Quick test_linear_cone_2d_invalid;
        ] );
      ( "fit",
        [
          Alcotest.test_case "golden section on quadratic" `Quick test_golden_section_quadratic;
          Alcotest.test_case "golden section invalid bracket" `Quick test_golden_section_invalid;
          Alcotest.test_case "Fig 3a: gaussian beats exponential" `Quick test_gaussian_fits_cone_better;
          Alcotest.test_case "fit recovers exact profile" `Quick test_fit_recovers_self;
          Alcotest.test_case "paper gaussian parameter sane" `Quick test_paper_gaussian_reasonable;
        ] );
      ( "analytic_kle",
        [
          Alcotest.test_case "transcendental roots" `Quick test_analytic_1d_transcendental_roots;
          Alcotest.test_case "descending eigenvalues" `Quick test_analytic_1d_descending_eigenvalues;
          Alcotest.test_case "orthonormal eigenfunctions" `Quick test_analytic_1d_eigenfunctions_orthonormal;
          Alcotest.test_case "1-D Mercer reconstruction" `Quick test_analytic_1d_mercer;
          Alcotest.test_case "2-D product structure" `Quick test_analytic_2d_product_structure;
          Alcotest.test_case "2-D kernel reconstruction" `Quick test_analytic_2d_kernel_reconstruction;
        ] );
      ( "extract",
        [
          Alcotest.test_case "correlogram shape" `Quick test_correlogram_shape;
          Alcotest.test_case "correlogram matches kernel" `Quick test_correlogram_matches_kernel;
          Alcotest.test_case "recovers the true kernel" `Quick test_extract_recovers_truth;
          Alcotest.test_case "results sorted by sse" `Quick test_extract_sorted_by_sse;
          Alcotest.test_case "input validation" `Quick test_correlogram_input_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_kernels_bounded; prop_kernels_monotone ] );
    ]
