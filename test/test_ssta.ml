module K = Kernels.Kernel

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* shared fixtures: a small circuit, placed once *)
let small_netlist =
  lazy
    (Circuit.Generator.generate
       { Circuit.Generator.name = "small"; n_gates = 120; n_inputs = 10;
         n_outputs = 6; dff_fraction = 0.0; seed = 7 })

let setup = lazy (Ssta.Experiment.setup_circuit (Lazy.force small_netlist))

let process = lazy (Ssta.Process.paper_default ())

(* a coarse KLE config that keeps tests fast *)
let fast_config =
  {
    Ssta.Algorithm2.max_area_fraction = 0.004;
    min_angle_deg = 28.0;
    computed_pairs = 80;
    r = Some 25;
  }

(* ---------- Process ---------- *)

let test_process_default_valid () =
  let p = Lazy.force process in
  Alcotest.(check int) "4 parameters" 4 (Ssta.Process.num_parameters p);
  Ssta.Process.validate p

let test_process_distinct_valid () =
  let p = Ssta.Process.distinct_kernels () in
  Ssta.Process.validate p;
  (* kernels actually differ *)
  let k0 = p.Ssta.Process.parameters.(0).Ssta.Process.kernel in
  let k1 = p.Ssta.Process.parameters.(1).Ssta.Process.kernel in
  Alcotest.(check bool) "distinct" true (k0 <> k1)

let test_process_invalid_kernel_detected () =
  let p =
    {
      Ssta.Process.parameters =
        Array.map
          (fun name -> { Ssta.Process.name; kernel = K.Gaussian { c = -1.0 } })
          Circuit.Gate.parameter_names;
    }
  in
  Alcotest.(check bool) "invalid" true
    (match Ssta.Process.validate p with
    | () -> false
    | exception Util.Diag.Failure _ -> true)

(* ---------- Experiment setup ---------- *)

let test_setup_locations_match_logic_gates () =
  let s = Lazy.force setup in
  Alcotest.(check int) "locations = logic gates"
    (Circuit.Netlist.logic_gate_count (Lazy.force small_netlist))
    (Array.length s.Ssta.Experiment.locations);
  (* all inside the die *)
  Array.iter
    (fun p ->
      Alcotest.(check bool) "inside" true (Geometry.Rect.contains Geometry.Rect.unit_die p))
    s.Ssta.Experiment.locations

(* ---------- Algorithm 1 ---------- *)

let test_a1_block_shapes () =
  let s = Lazy.force setup in
  let a1 = Ssta.Algorithm1.prepare (Lazy.force process) s.Ssta.Experiment.locations in
  let rng = Prng.Rng.create ~seed:1 in
  let blocks = Ssta.Algorithm1.sample_block a1 rng ~n:50 in
  Alcotest.(check int) "4 blocks" 4 (Array.length blocks);
  Array.iter
    (fun b ->
      Alcotest.(check int) "rows" 50 (Linalg.Mat.rows b);
      Alcotest.(check int) "cols" (Array.length s.Ssta.Experiment.locations) (Linalg.Mat.cols b))
    blocks

let test_a1_marginals_standard_normal () =
  let s = Lazy.force setup in
  let a1 = Ssta.Algorithm1.prepare (Lazy.force process) s.Ssta.Experiment.locations in
  let rng = Prng.Rng.create ~seed:2 in
  let blocks = Ssta.Algorithm1.sample_block a1 rng ~n:8000 in
  let col = Linalg.Mat.col blocks.(0) 3 in
  let summary = Stats.Summary.of_array col in
  check_close ~tol:0.06 "mean 0" 0.0 summary.Stats.Summary.mean;
  check_close ~tol:0.08 "std 1" 1.0 summary.Stats.Summary.std_dev

let test_a1_correlation_follows_kernel () =
  let s = Lazy.force setup in
  let proc = Lazy.force process in
  let a1 = Ssta.Algorithm1.prepare proc s.Ssta.Experiment.locations in
  let rng = Prng.Rng.create ~seed:3 in
  let blocks = Ssta.Algorithm1.sample_block a1 rng ~n:8000 in
  let corr = Stats.Correlation.column_correlation blocks.(2) in
  let kernel = proc.Ssta.Process.parameters.(2).Ssta.Process.kernel in
  List.iter
    (fun (i, j) ->
      let expected =
        K.eval kernel s.Ssta.Experiment.locations.(i) s.Ssta.Experiment.locations.(j)
      in
      let got = Linalg.Mat.get corr i j in
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d): %.3f vs %.3f" i j expected got)
        true
        (Float.abs (expected -. got) < 0.08))
    [ (0, 1); (5, 50); (10, 100); (30, 80) ]

let test_a1_parameters_mutually_independent () =
  let s = Lazy.force setup in
  let a1 = Ssta.Algorithm1.prepare (Lazy.force process) s.Ssta.Experiment.locations in
  let rng = Prng.Rng.create ~seed:4 in
  let blocks = Ssta.Algorithm1.sample_block a1 rng ~n:8000 in
  (* same gate, different parameters: near-zero correlation *)
  let x = Linalg.Mat.col blocks.(0) 7 and y = Linalg.Mat.col blocks.(1) 7 in
  Alcotest.(check bool) "independent" true (Float.abs (Stats.Correlation.pearson x y) < 0.05)

let test_a1_memory_estimate () =
  let bytes = Ssta.Algorithm1.memory_bytes ~n_locations:1000 ~n_parameters:4 in
  Alcotest.(check bool) "about 40MB" true (bytes = 8 * 1000 * 1000 * 5)

(* ---------- Algorithm 2 ---------- *)

let a2_fixture =
  lazy
    (let s = Lazy.force setup in
     Ssta.Algorithm2.prepare ~config:fast_config (Lazy.force process)
       s.Ssta.Experiment.locations)

let test_a2_structure () =
  let a2 = Lazy.force a2_fixture in
  Alcotest.(check int) "r" 25 (Ssta.Algorithm2.r a2);
  Alcotest.(check bool) "mesh sized" true (Ssta.Algorithm2.mesh_size a2 > 50);
  Alcotest.(check bool) "setup timed" true (Ssta.Algorithm2.setup_seconds a2 > 0.0)

(* the pair ladder against the paper's 200-pair solve on the same mesh:
   same r, and the leading eigenvalues agree to 1e-10 relative *)
let check_ladder_matches_full_solve ~what ~rung kernel =
  let config = { fast_config with Ssta.Algorithm2.computed_pairs = 200; r = None } in
  let mesh = Ssta.Algorithm2.mesh config in
  let ladder = Ssta.Algorithm2.model ~config ~mesh kernel in
  let full =
    Kle.Model.create
      (Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count = 200 }) mesh kernel)
  in
  let pairs m = Array.length m.Kle.Model.solution.Kle.Galerkin.eigenvalues in
  Alcotest.(check int) (what ^ ": ladder stops at its rung") rung (pairs ladder);
  Alcotest.(check int) (what ^ ": same r") full.Kle.Model.r ladder.Kle.Model.r;
  Alcotest.(check bool) (what ^ ": r below the rung") true (ladder.Kle.Model.r < rung);
  let full_vals = Kle.Model.eigenvalues full in
  let gap = ref 0.0 in
  Array.iteri
    (fun j lam -> gap := Float.max !gap (Float.abs (lam -. full_vals.(j)) /. lam))
    (Kle.Model.eigenvalues ladder);
  Alcotest.(check bool)
    (Printf.sprintf "%s: leading eigenvalues within %.1e <= 1e-10" what !gap)
    true (!gap <= 1e-10)

let test_a2_pair_ladder () =
  (* the paper kernel keeps r < 32, so the first rung decides *)
  check_ladder_matches_full_solve ~what:"paper kernel" ~rung:32
    (Lazy.force process).Ssta.Process.parameters.(0).Ssta.Process.kernel;
  (* a shorter correlation length keeps more pairs: the ladder climbs *)
  check_ladder_matches_full_solve ~what:"short kernel" ~rung:64 (K.Gaussian { c = 6.0 })

let test_a2_fixed_r_solves_computed_pairs () =
  let models = Ssta.Algorithm2.models (Lazy.force a2_fixture) in
  Alcotest.(check int) "computed_pairs solved for r = Some"
    fast_config.Ssta.Algorithm2.computed_pairs
    (Array.length models.(0).Kle.Model.solution.Kle.Galerkin.eigenvalues)

let test_a2_shared_kernel_shares_model () =
  let a2 = Lazy.force a2_fixture in
  let models = Ssta.Algorithm2.models a2 in
  (* paper_default uses one kernel for all 4 parameters: physical equality *)
  Alcotest.(check bool) "shared" true (models.(0) == models.(1) && models.(1) == models.(3))

let test_a2_prepare_closure_kernels () =
  (* regression: the per-kernel model cache used to key on structural
     equality, and polymorphic compare raises on kernels carrying closures
     (a [Util.Fault.Transform] plan); the cache now keys on physical
     equality.  All four parameters share one kernel value, so they must
     also share one model. *)
  let plan = Util.Fault.plan ~first:max_int (Util.Fault.Transform (fun v -> v)) in
  let kernel = K.Faulty { base = K.Gaussian { c = 2.8 }; plan } in
  let p =
    {
      Ssta.Process.parameters =
        Array.map
          (fun name -> { Ssta.Process.name; kernel })
          Circuit.Gate.parameter_names;
    }
  in
  (* Process.validate's distinct-kernel scan walks the same closure-carrying
     values and must not fall back to structural membership either *)
  (match Ssta.Process.validate p with
  | () -> ()
  | exception Util.Diag.Failure e -> Alcotest.failf "validate failed: %s" e.Util.Diag.detail);
  let s = Lazy.force setup in
  let a2 = Ssta.Algorithm2.prepare ~config:fast_config p s.Ssta.Experiment.locations in
  let models = Ssta.Algorithm2.models a2 in
  Alcotest.(check bool) "one model shared via physical equality" true
    (models.(0) == models.(1) && models.(1) == models.(2) && models.(2) == models.(3))

let test_a2_block_shapes () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let rng = Prng.Rng.create ~seed:5 in
  let blocks = Ssta.Algorithm2.sample_block a2 rng ~n:40 in
  Alcotest.(check int) "4 blocks" 4 (Array.length blocks);
  Array.iter
    (fun b ->
      Alcotest.(check int) "rows" 40 (Linalg.Mat.rows b);
      Alcotest.(check int) "cols" (Array.length s.Ssta.Experiment.locations) (Linalg.Mat.cols b))
    blocks

let test_a2_correlation_follows_kernel () =
  let s = Lazy.force setup in
  let proc = Lazy.force process in
  let a2 = Lazy.force a2_fixture in
  let rng = Prng.Rng.create ~seed:6 in
  let blocks = Ssta.Algorithm2.sample_block a2 rng ~n:8000 in
  let corr = Stats.Correlation.column_correlation blocks.(1) in
  let kernel = proc.Ssta.Process.parameters.(1).Ssta.Process.kernel in
  List.iter
    (fun (i, j) ->
      let expected =
        K.eval kernel s.Ssta.Experiment.locations.(i) s.Ssta.Experiment.locations.(j)
      in
      let got = Linalg.Mat.get corr i j in
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d): %.3f vs %.3f" i j expected got)
        true
        (Float.abs (expected -. got) < 0.12))
    [ (0, 1); (5, 50); (10, 100); (30, 80) ]

(* ---------- Grid PCA baseline ---------- *)

let test_grid_pca_shapes_and_variance () =
  let s = Lazy.force setup in
  let g = Ssta.Grid_pca.prepare ~grid:6 ~r:20 (Lazy.force process) s.Ssta.Experiment.locations in
  Alcotest.(check int) "r" 20 (Ssta.Grid_pca.r g);
  let ev = Ssta.Grid_pca.explained_variance_fraction g in
  Alcotest.(check bool) (Printf.sprintf "explained %.3f" ev) true (ev > 0.8 && ev <= 1.0 +. 1e-9);
  let rng = Prng.Rng.create ~seed:7 in
  let blocks = Ssta.Grid_pca.sample_block g rng ~n:30 in
  Alcotest.(check int) "cols" (Array.length s.Ssta.Experiment.locations)
    (Linalg.Mat.cols blocks.(0))

let test_grid_pca_same_cell_fully_correlated () =
  let s = Lazy.force setup in
  let g = Ssta.Grid_pca.prepare ~grid:4 (Lazy.force process) s.Ssta.Experiment.locations in
  (* find two gates in the same cell *)
  let n = Array.length s.Ssta.Experiment.locations in
  let pair = ref None in
  (try
     for i = 0 to n - 1 do
       for j = i + 1 to n - 1 do
         if Ssta.Grid_pca.cell_of_location g i = Ssta.Grid_pca.cell_of_location g j then begin
           pair := Some (i, j);
           raise Exit
         end
       done
     done
   with Exit -> ());
  match !pair with
  | None -> Alcotest.fail "no same-cell pair found"
  | Some (i, j) ->
      let rng = Prng.Rng.create ~seed:8 in
      let blocks = Ssta.Grid_pca.sample_block g rng ~n:2000 in
      let x = Linalg.Mat.col blocks.(0) i and y = Linalg.Mat.col blocks.(0) j in
      check_close ~tol:1e-6 "same cell corr 1" 1.0 (Stats.Correlation.pearson x y)

let test_grid_pca_r_out_of_range () =
  let s = Lazy.force setup in
  Alcotest.(check bool) "raises" true
    (match Ssta.Grid_pca.prepare ~grid:3 ~r:100 (Lazy.force process) s.Ssta.Experiment.locations with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- run_mc + compare ---------- *)

let test_run_mc_deterministic () =
  let s = Lazy.force setup in
  let a1 = Ssta.Algorithm1.prepare (Lazy.force process) s.Ssta.Experiment.locations in
  (* same seed and batch size: bit-identical statistics, for both samplers *)
  List.iter
    (fun (name, sampler) ->
      let run () = Ssta.Experiment.run_mc ~batch:16 s ~sampler ~seed:9 ~n:64 in
      let r1 = run () and r2 = run () in
      check_close ~tol:0.0 (name ^ " same mean") r1.Ssta.Experiment.worst_mean
        r2.Ssta.Experiment.worst_mean;
      check_close ~tol:0.0 (name ^ " same sigma") r1.Ssta.Experiment.worst_sigma
        r2.Ssta.Experiment.worst_sigma)
    [
      ("kle", Ssta.Algorithm2.sample_block (Lazy.force a2_fixture));
      ("cholesky", Ssta.Algorithm1.sample_block a1);
    ]

let test_run_mc_batching_consistent () =
  (* different batch sizes reshuffle the RNG stream across parameters, so
     results differ sample-by-sample but must agree statistically *)
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let r1 =
    Ssta.Experiment.run_mc ~batch:50 s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:9 ~n:1500
  in
  let r2 =
    Ssta.Experiment.run_mc ~batch:1500 s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:9 ~n:1500
  in
  let rel = Float.abs (r1.Ssta.Experiment.worst_mean -. r2.Ssta.Experiment.worst_mean) /. r1.Ssta.Experiment.worst_mean in
  Alcotest.(check bool) (Printf.sprintf "means agree (rel %.2e)" rel) true (rel < 0.005)

let test_algorithms_agree () =
  (* the headline claim at small scale: KLE MC matches Cholesky MC *)
  let s = Lazy.force setup in
  let proc = Lazy.force process in
  let a1 = Ssta.Algorithm1.prepare proc s.Ssta.Experiment.locations in
  let a2 = Lazy.force a2_fixture in
  let n = 3000 in
  let mc1 = Ssta.Experiment.run_mc s ~sampler:(Ssta.Algorithm1.sample_block a1) ~seed:21 ~n in
  let mc2 = Ssta.Experiment.run_mc s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:22 ~n in
  let cmp =
    Ssta.Experiment.compare ~reference:mc1 ~reference_setup_seconds:0.0 ~candidate:mc2
      ~candidate_setup_seconds:0.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "e_mu %.3f%% < 0.5%%" cmp.Ssta.Experiment.e_mu_pct)
    true
    (cmp.Ssta.Experiment.e_mu_pct < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "e_sigma %.2f%% < 15%%" cmp.Ssta.Experiment.e_sigma_pct)
    true
    (cmp.Ssta.Experiment.e_sigma_pct < 15.0)

let test_compare_metrics_known () =
  let mk mean sigma =
    {
      Ssta.Experiment.n_samples = 10;
      n_skipped = 0;
      worst_mean = mean;
      worst_sigma = sigma;
      endpoint_mean = [| mean |];
      endpoint_sigma = [| sigma |];
      sample_seconds = 1.0;
      sta_seconds = 1.0;
    }
  in
  let cmp =
    Ssta.Experiment.compare ~reference:(mk 100.0 10.0) ~reference_setup_seconds:2.0
      ~candidate:(mk 101.0 11.0) ~candidate_setup_seconds:0.0
  in
  check_close ~tol:1e-9 "e_mu" 1.0 cmp.Ssta.Experiment.e_mu_pct;
  check_close ~tol:1e-9 "e_sigma" 10.0 cmp.Ssta.Experiment.e_sigma_pct;
  check_close ~tol:1e-9 "speedup" 2.0 cmp.Ssta.Experiment.speedup;
  check_close ~tol:1e-9 "sigma avg" 10.0 cmp.Ssta.Experiment.sigma_err_avg_outputs_pct

let test_run_mc_rejects_bad_n () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  Alcotest.(check bool) "n=0 raises" true
    (match
       Ssta.Experiment.run_mc s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:1 ~n:0
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_run_mc_rejects_bad_sampler_shape () =
  (* regression: block width was validated but row count was not, so a
     misbehaving sampler read stale/garbage rows instead of failing *)
  let s = Lazy.force setup in
  let n_logic = Array.length s.Ssta.Experiment.logic_ids in
  let raises sampler =
    match Ssta.Experiment.run_mc s ~sampler ~seed:1 ~n:8 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let short_rows _rng ~n = Array.init 4 (fun _ -> Linalg.Mat.create (n - 1) n_logic) in
  Alcotest.(check bool) "short rows raise" true (raises short_rows);
  let narrow _rng ~n = Array.init 4 (fun _ -> Linalg.Mat.create n (n_logic - 1)) in
  Alcotest.(check bool) "narrow blocks raise" true (raises narrow);
  let three_blocks _rng ~n = Array.init 3 (fun _ -> Linalg.Mat.create n n_logic) in
  Alcotest.(check bool) "3 blocks raise" true (raises three_blocks)

let test_run_mc_single_sample () =
  (* regression: n = 1 crashed because Welford.std_dev raised for n < 2 *)
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let r =
    Ssta.Experiment.run_mc s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:5 ~n:1
  in
  Alcotest.(check int) "one sample" 1 r.Ssta.Experiment.n_samples;
  check_close ~tol:0.0 "sigma is 0 for a single sample" 0.0 r.Ssta.Experiment.worst_sigma;
  Alcotest.(check bool) "mean finite" true (Float.is_finite r.Ssta.Experiment.worst_mean);
  Array.iter
    (fun sd -> check_close ~tol:0.0 "endpoint sigma 0" 0.0 sd)
    r.Ssta.Experiment.endpoint_sigma

let test_run_mc_jobs_bit_identical () =
  (* the tentpole determinism contract: results are a pure function of
     (setup, sampler, seed, n, batch) — any jobs count gives the same bits *)
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let run jobs =
    Ssta.Experiment.run_mc ~jobs ~batch:48 s
      ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:9 ~n:150
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  List.iter
    (fun (label, r) ->
      check_close ~tol:0.0 (label ^ " mean") r1.Ssta.Experiment.worst_mean
        r.Ssta.Experiment.worst_mean;
      check_close ~tol:0.0 (label ^ " sigma") r1.Ssta.Experiment.worst_sigma
        r.Ssta.Experiment.worst_sigma;
      Alcotest.(check (array (float 0.0)))
        (label ^ " endpoint means")
        r1.Ssta.Experiment.endpoint_mean r.Ssta.Experiment.endpoint_mean;
      Alcotest.(check (array (float 0.0)))
        (label ^ " endpoint sigmas")
        r1.Ssta.Experiment.endpoint_sigma r.Ssta.Experiment.endpoint_sigma)
    [ ("jobs=2", r2); ("jobs=4", r4) ]

let test_compare_skips_zero_sigma_endpoints () =
  (* regression: a zero-sigma reference endpoint turned the Fig. 6 average
     into inf/nan instead of being excluded *)
  let mk sigmas =
    {
      Ssta.Experiment.n_samples = 10;
      n_skipped = 0;
      worst_mean = 100.0;
      worst_sigma = 10.0;
      endpoint_mean = Array.map (fun _ -> 100.0) sigmas;
      endpoint_sigma = sigmas;
      sample_seconds = 1.0;
      sta_seconds = 1.0;
    }
  in
  let cmp =
    Ssta.Experiment.compare
      ~reference:(mk [| 10.0; 0.0; 20.0 |])
      ~reference_setup_seconds:0.0
      ~candidate:(mk [| 11.0; 0.5; 22.0 |])
      ~candidate_setup_seconds:0.0
  in
  (* zero-sigma endpoint skipped: average of 10% and 10% over 2 endpoints *)
  check_close ~tol:1e-9 "zero-sigma endpoint excluded" 10.0
    cmp.Ssta.Experiment.sigma_err_avg_outputs_pct;
  let all_zero =
    Ssta.Experiment.compare
      ~reference:(mk [| 0.0; 0.0 |])
      ~reference_setup_seconds:0.0 ~candidate:(mk [| 1.0; 2.0 |])
      ~candidate_setup_seconds:0.0
  in
  Alcotest.(check bool) "all-zero reference gives nan" true
    (Float.is_nan all_zero.Ssta.Experiment.sigma_err_avg_outputs_pct)

let test_compare_excluded_endpoint_count () =
  let mk sigmas =
    {
      Ssta.Experiment.n_samples = 10;
      n_skipped = 0;
      worst_mean = 100.0;
      worst_sigma = 10.0;
      endpoint_mean = Array.map (fun _ -> 100.0) sigmas;
      endpoint_sigma = sigmas;
      sample_seconds = 1.0;
      sta_seconds = 1.0;
    }
  in
  let cmp r c =
    Ssta.Experiment.compare ~reference:(mk r) ~reference_setup_seconds:0.0
      ~candidate:(mk c) ~candidate_setup_seconds:0.0
  in
  Alcotest.(check int) "one zero-sigma endpoint excluded" 1
    (cmp [| 10.0; 0.0; 20.0 |] [| 11.0; 0.5; 22.0 |]).Ssta.Experiment.excluded_endpoints;
  Alcotest.(check int) "none excluded" 0
    (cmp [| 10.0; 20.0 |] [| 11.0; 22.0 |]).Ssta.Experiment.excluded_endpoints;
  let all = cmp [| 0.0; 0.0 |] [| 1.0; 2.0 |] in
  Alcotest.(check int) "all excluded" 2 all.Ssta.Experiment.excluded_endpoints;
  Alcotest.(check bool) "all excluded still nan" true
    (Float.is_nan all.Ssta.Experiment.sigma_err_avg_outputs_pct);
  let mismatch = cmp [| 10.0; 20.0 |] [| 10.0; 20.0; 30.0 |] in
  Alcotest.(check int) "endpoint-count mismatch excludes all" 2
    mismatch.Ssta.Experiment.excluded_endpoints

(* ---------- non-finite policies + fault injection ---------- *)

let test_run_mc_fail_policy_names_fault () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let diag = Util.Diag.create () in
  (* corrupt one entry of the second sampler call (batch 1) *)
  let faulty, fired =
    Ssta.Fault_inject.sampler ~first:1 ~diag ~seed:77
      (Ssta.Algorithm2.sample_block a2)
  in
  (match Ssta.Experiment.run_mc ~batch:16 ~diag s ~sampler:faulty ~seed:9 ~n:64 with
  | _ -> Alcotest.fail "expected Util.Diag.Failure"
  | exception Util.Diag.Failure e ->
      Alcotest.(check bool) "typed non-finite" true (e.Util.Diag.code = `Non_finite);
      Alcotest.(check string) "stage" "experiment.run_mc" e.Util.Diag.stage;
      Alcotest.(check bool) "names the batch" true
        (let rec has i =
           i + 7 <= String.length e.Util.Diag.detail
           && (String.sub e.Util.Diag.detail i 7 = "batch 1" || has (i + 1))
         in
         has 0));
  Alcotest.(check int) "exactly one fault fired" 1 (fired ());
  Alcotest.(check bool) "fault event recorded" true
    (Util.Diag.count ~code:`Fault_injected diag > 0)

let test_run_mc_skip_policy_bit_identical_across_jobs () =
  (* acceptance criterion: Skip policy with the same fault seed stays
     bit-identical across -j 1 and -j 2, with a deterministic skip count *)
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let run jobs =
    (* fresh decorator per run: its call counter is part of the run state *)
    let faulty, _ =
      Ssta.Fault_inject.sampler ~first:0 ~period:2 ~entries_per_call:2 ~seed:77
        (Ssta.Algorithm2.sample_block a2)
    in
    let diag = Util.Diag.create () in
    let r =
      Ssta.Experiment.run_mc ~jobs ~batch:24 ~policy:Ssta.Experiment.Skip ~diag s
        ~sampler:faulty ~seed:9 ~n:96
    in
    (r, diag)
  in
  let r1, d1 = run 1 and r2, d2 = run 2 in
  Alcotest.(check bool) "samples were skipped" true (r1.Ssta.Experiment.n_skipped > 0);
  Alcotest.(check int) "same skip count" r1.Ssta.Experiment.n_skipped
    r2.Ssta.Experiment.n_skipped;
  Alcotest.(check int) "skip warnings recorded" (Util.Diag.count ~code:`Skipped_samples d1)
    (Util.Diag.count ~code:`Skipped_samples d2);
  Alcotest.(check bool) "at least one skip warning" true
    (Util.Diag.count ~code:`Skipped_samples d1 > 0);
  check_close ~tol:0.0 "same mean" r1.Ssta.Experiment.worst_mean r2.Ssta.Experiment.worst_mean;
  check_close ~tol:0.0 "same sigma" r1.Ssta.Experiment.worst_sigma
    r2.Ssta.Experiment.worst_sigma;
  Alcotest.(check (array (float 0.0)))
    "endpoint means" r1.Ssta.Experiment.endpoint_mean r2.Ssta.Experiment.endpoint_mean;
  Alcotest.(check (array (float 0.0)))
    "endpoint sigmas" r1.Ssta.Experiment.endpoint_sigma r2.Ssta.Experiment.endpoint_sigma;
  (* and the whole thing is reproducible run-to-run *)
  let r1', _ = run 1 in
  Alcotest.(check int) "reproducible skip count" r1.Ssta.Experiment.n_skipped
    r1'.Ssta.Experiment.n_skipped;
  check_close ~tol:0.0 "reproducible mean" r1.Ssta.Experiment.worst_mean
    r1'.Ssta.Experiment.worst_mean

let test_run_mc_all_skipped_raises () =
  let s = Lazy.force setup in
  let n_logic = Array.length s.Ssta.Experiment.logic_ids in
  let all_nan _rng ~n =
    Array.init 4 (fun _ -> Linalg.Mat.init n n_logic (fun _ _ -> Float.nan))
  in
  Alcotest.(check bool) "raises when every sample is bad" true
    (match
       Ssta.Experiment.run_mc ~policy:Ssta.Experiment.Skip s ~sampler:all_nan ~seed:1 ~n:8
     with
    | _ -> false
    | exception Util.Diag.Failure e -> e.Util.Diag.code = `Non_finite)

(* ---------- compiled timing plan vs the per-sample oracle ---------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let gaussian_sampler ~scale ~n_logic rng ~n =
  Array.init 4 (fun _ ->
      Linalg.Mat.scale scale (Prng.Gaussian.matrix rng ~rows:n ~cols:n_logic))

let prop_run_mc_matches_oracle =
  let gen =
    QCheck.Gen.(
      let* n_gates = int_range 20 90 in
      let* dff_fraction = float_range 0.05 0.3 in
      let* gen_seed = int_range 0 10_000 in
      let* scale = float_range 0.1 12.0 in
      let* n = int_range 1 80 in
      let* batch = int_range 1 80 in
      let* seed = int_range 0 10_000 in
      return (n_gates, dff_fraction, gen_seed, scale, n, batch, seed))
  in
  let print (g, d, gs, sc, n, b, s) =
    Printf.sprintf "(gates=%d dff=%.2f gen_seed=%d scale=%.2f n=%d batch=%d seed=%d)" g d
      gs sc n b s
  in
  QCheck.Test.make ~name:"plan-driven run_mc = per-sample Timing.run oracle, bit for bit"
    ~count:200 (QCheck.make gen ~print)
    (fun (n_gates, dff_fraction, gen_seed, scale, n, batch, seed) ->
      let netlist =
        Circuit.Generator.generate
          { Circuit.Generator.name = "q"; n_gates; n_inputs = 6; n_outputs = 4;
            dff_fraction; seed = gen_seed }
      in
      let s = Ssta.Experiment.setup_circuit netlist in
      let sampler = gaussian_sampler ~scale ~n_logic:(Array.length s.logic_ids) in
      let r = Ssta.Experiment.run_mc ~jobs:1 ~batch s ~sampler ~seed ~n in
      let o = Ssta.Experiment.run_mc_reference ~batch s ~sampler ~seed ~n in
      let same_arrays a b = Array.length a = Array.length b && Array.for_all2 same_bits a b in
      same_bits o.Ssta.Experiment.worst_mean r.Ssta.Experiment.worst_mean
      && same_bits o.Ssta.Experiment.worst_sigma r.Ssta.Experiment.worst_sigma
      && same_arrays o.Ssta.Experiment.endpoint_mean r.Ssta.Experiment.endpoint_mean
      && same_arrays o.Ssta.Experiment.endpoint_sigma r.Ssta.Experiment.endpoint_sigma)

(* c880 statistics pinned to the bits the scatter + [Timing.run] loop and
   the one-output-at-a-time [Mat.mul_nt] produced before the compiled plan
   and the register-blocked product replaced them *)
let test_run_mc_c880_golden () =
  let s = Ssta.Experiment.setup_circuit (Circuit.Generator.generate_paper "c880") in
  let a2 =
    Ssta.Algorithm2.prepare ~config:fast_config (Lazy.force process) s.Ssta.Experiment.locations
  in
  List.iter
    (fun jobs ->
      let r =
        Ssta.Experiment.run_mc ~jobs s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:2024
          ~n:500
      in
      let label what = Printf.sprintf "%s at jobs %d" what jobs in
      Alcotest.(check string) (label "worst_mean") "0x1.367acd8e25e4cp+12"
        (Printf.sprintf "%h" r.Ssta.Experiment.worst_mean);
      Alcotest.(check string) (label "worst_sigma") "0x1.e9d33e133c5e4p+5"
        (Printf.sprintf "%h" r.Ssta.Experiment.worst_sigma))
    [ 1; 2 ]

(* ---------- The analysis path, end to end ---------- *)

let test_pipeline_cholesky_end_to_end () =
  let proc = Lazy.force process in
  Ssta.Process.validate proc;
  let s = Ssta.Experiment.setup_circuit (Lazy.force small_netlist) in
  let a1 = Ssta.Algorithm1.prepare proc s.Ssta.Experiment.locations in
  let mc = Ssta.Experiment.run_mc s ~sampler:(Ssta.Algorithm1.sample_block a1) ~seed:3 ~n:40 in
  Alcotest.(check int) "n samples" 40 mc.Ssta.Experiment.n_samples;
  Alcotest.(check int) "no skips" 0 mc.Ssta.Experiment.n_skipped;
  Alcotest.(check bool) "finite mean" true (Float.is_finite mc.Ssta.Experiment.worst_mean);
  Alcotest.(check bool) "setup timed" true (Ssta.Algorithm1.setup_seconds a1 >= 0.0)

let test_pipeline_kle_stages () =
  let s = Lazy.force setup in
  let proc = Lazy.force process in
  Ssta.Process.validate proc;
  let a2 = Ssta.Algorithm2.prepare ~config:fast_config proc s.Ssta.Experiment.locations in
  let mc = Ssta.Experiment.run_mc s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:11 ~n:32 in
  Alcotest.(check int) "n samples" 32 mc.Ssta.Experiment.n_samples;
  Alcotest.(check bool) "finite sigma" true (Float.is_finite mc.Ssta.Experiment.worst_sigma)

(* ---------- Checks along the analysis path ---------- *)

let test_pipeline_rejects_invalid_kernel () =
  let process_of kernel =
    {
      Ssta.Process.parameters =
        Array.map (fun name -> { Ssta.Process.name; kernel }) Circuit.Gate.parameter_names;
    }
  in
  let rejects what code p =
    match Ssta.Process.validate p with
    | () -> Alcotest.failf "%s accepted" what
    | exception Util.Diag.Failure e ->
        Alcotest.(check bool) (what ^ ": typed code") true (e.Util.Diag.code = code)
  in
  (* static parameter check *)
  rejects "negative correlation length" `Invalid_input (process_of (K.Gaussian { c = -1.0 }));
  (* the PSD spot check: statically valid, but every value negated *)
  rejects "negated kernel" `Not_psd
    (process_of
       (K.Faulty
          { base = K.Gaussian { c = 2.8 }; plan = Util.Fault.plan ~period:1 (Util.Fault.Scale (-1.0)) }))

let test_pipeline_mesh_angle_floor () =
  let uniform = Geometry.Mesh.uniform Geometry.Rect.unit_die ~divisions:4 in
  Alcotest.(check bool) "45-degree mesh passes" true (Geometry.Mesh.check uniform = Ok ());
  (* a structurally sound fan around an interior point just above the bottom
     edge: the bottom triangle is a 1.1-degree sliver *)
  let pt = Geometry.Point.make in
  let sliver =
    Geometry.Mesh.make Geometry.Rect.unit_die
      [| pt (-1.0) (-1.0); pt 1.0 (-1.0); pt 1.0 1.0; pt (-1.0) 1.0; pt 0.0 (-0.98) |]
      [| (0, 1, 4); (1, 2, 4); (2, 3, 4); (3, 0, 4) |]
  in
  match Geometry.Mesh.check sliver with
  | Ok () -> Alcotest.fail "sliver mesh passed the angle floor"
  | Error msg ->
      Alcotest.(check bool) ("names the angle: " ^ msg) true
        (String.starts_with ~prefix:"minimum interior angle" msg)

let test_pipeline_degraded_factorization_recorded () =
  (* duplicate gate locations make the Algorithm 1 covariance exactly
     singular: the jitter fallback rescues it and records the degradation,
     which ssta_demo --strict turns into a failing exit at the end of the
     run *)
  let s = Lazy.force setup in
  let locations = Array.copy s.Ssta.Experiment.locations in
  locations.(1) <- locations.(0);
  let diag = Util.Diag.create () in
  ignore (Ssta.Algorithm1.prepare ~diag (Lazy.force process) locations);
  Alcotest.(check bool) "degradation recorded" true
    (Util.Diag.count ~code:`Degraded_fallback diag > 0)

(* ---------- Canonical forms ---------- *)

let canon ~mean ~sens ~indep = Ssta.Canonical.make ~mean ~sens ~indep

let test_canonical_algebra () =
  let a = canon ~mean:1.0 ~sens:[| 2.0; 0.0 |] ~indep:1.0 in
  let b = canon ~mean:3.0 ~sens:[| 1.0; 4.0 |] ~indep:2.0 in
  let s = Ssta.Canonical.add a b in
  check_close "mean" 4.0 s.Ssta.Canonical.mean;
  Alcotest.(check (array (float 1e-12))) "sens" [| 3.0; 4.0 |] s.Ssta.Canonical.sens;
  check_close "indep rss" (sqrt 5.0) s.Ssta.Canonical.indep;
  check_close "variance" (9.0 +. 16.0 +. 5.0) (Ssta.Canonical.variance s);
  let sc = Ssta.Canonical.scale (-2.0) a in
  check_close "scaled mean" (-2.0) sc.Ssta.Canonical.mean;
  check_close "scaled indep" 2.0 sc.Ssta.Canonical.indep

let test_canonical_covariance () =
  let a = canon ~mean:0.0 ~sens:[| 1.0; 2.0 |] ~indep:5.0 in
  let b = canon ~mean:0.0 ~sens:[| 3.0; -1.0 |] ~indep:7.0 in
  (* local terms never correlate *)
  check_close "cov" 1.0 (Ssta.Canonical.covariance a b);
  check_close "symmetric" (Ssta.Canonical.covariance b a) (Ssta.Canonical.covariance a b)

let test_canonical_mismatch () =
  let a = canon ~mean:0.0 ~sens:[| 1.0 |] ~indep:0.0 in
  let b = canon ~mean:0.0 ~sens:[| 1.0; 2.0 |] ~indep:0.0 in
  Alcotest.(check bool) "raises" true
    (match Ssta.Canonical.add a b with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_canonical_negative_indep () =
  Alcotest.(check bool) "raises" true
    (match canon ~mean:0.0 ~sens:[| 1.0 |] ~indep:(-1.0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* brute-force MC check of Clark's max on two correlated forms *)
let mc_max_moments a b n seed =
  let rng = Prng.Rng.create ~seed in
  let dim = Ssta.Canonical.dim a in
  let acc = Stats.Welford.create () in
  for _ = 1 to n do
    let xi = Prng.Gaussian.vector rng dim in
    let la = Prng.Gaussian.draw rng and lb = Prng.Gaussian.draw rng in
    let va = Ssta.Canonical.eval a ~xi ~local:la in
    let vb = Ssta.Canonical.eval b ~xi ~local:lb in
    Stats.Welford.add acc (Float.max va vb)
  done;
  (Stats.Welford.mean acc, Stats.Welford.std_dev acc)

let test_clark_max_vs_mc () =
  List.iteri
    (fun i (a, b) ->
      let m = Ssta.Canonical.max_clark a b in
      let mc_mean, mc_sigma = mc_max_moments a b 100_000 (100 + i) in
      Alcotest.(check bool)
        (Printf.sprintf "case %d mean: clark %.4f vs mc %.4f" i
           m.Ssta.Canonical.mean mc_mean)
        true
        (Float.abs (m.Ssta.Canonical.mean -. mc_mean) < 0.02 *. (1.0 +. Float.abs mc_mean));
      Alcotest.(check bool)
        (Printf.sprintf "case %d sigma: clark %.4f vs mc %.4f" i
           (Ssta.Canonical.sigma m) mc_sigma)
        true
        (Float.abs (Ssta.Canonical.sigma m -. mc_sigma) < 0.03 *. mc_sigma))
    [
      (* overlapping, partially correlated *)
      ( canon ~mean:10.0 ~sens:[| 1.0; 0.5 |] ~indep:0.5,
        canon ~mean:10.2 ~sens:[| 0.8; -0.3 |] ~indep:0.7 );
      (* far apart: max ~ the bigger one *)
      ( canon ~mean:0.0 ~sens:[| 1.0; 0.0 |] ~indep:0.0,
        canon ~mean:8.0 ~sens:[| 0.0; 1.0 |] ~indep:0.0 );
      (* anti-correlated *)
      ( canon ~mean:5.0 ~sens:[| 2.0; 0.0 |] ~indep:0.1,
        canon ~mean:5.0 ~sens:[| -2.0; 0.0 |] ~indep:0.1 );
    ]

let test_clark_max_identical_forms () =
  let a = canon ~mean:3.0 ~sens:[| 1.0; 2.0 |] ~indep:0.0 in
  let m = Ssta.Canonical.max_clark a a in
  check_close "same mean" 3.0 m.Ssta.Canonical.mean;
  check_close "same sigma" (Ssta.Canonical.sigma a) (Ssta.Canonical.sigma m)

let test_clark_max_dominant () =
  let a = canon ~mean:0.0 ~sens:[| 1.0 |] ~indep:0.0 in
  let b = canon ~mean:100.0 ~sens:[| 0.5 |] ~indep:0.0 in
  let m = Ssta.Canonical.max_clark a b in
  check_close ~tol:1e-6 "dominant mean" 100.0 m.Ssta.Canonical.mean;
  check_close ~tol:1e-6 "dominant sens" 0.5 m.Ssta.Canonical.sens.(0)

let test_max_many_empty () =
  Alcotest.(check bool) "raises" true
    (match Ssta.Canonical.max_many [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_canonical_quantile () =
  let a = canon ~mean:10.0 ~sens:[| 3.0; 4.0 |] ~indep:0.0 in
  (* sigma 5 *)
  check_close ~tol:1e-6 "median" 10.0 (Ssta.Canonical.quantile a 0.5);
  check_close ~tol:1e-4 "+1 sigma" 15.0 (Ssta.Canonical.quantile a 0.8413447460685429)

(* ---------- Block SSTA ---------- *)

let test_block_ssta_matches_mc () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let blk = Ssta.Block_ssta.run s ~models:(Ssta.Algorithm2.models a2) in
  (* MC with the SAME KLE models isolates the Clark/linearization error *)
  let mc =
    Ssta.Experiment.run_mc s ~sampler:(Ssta.Algorithm2.sample_block a2) ~seed:31 ~n:4000
  in
  let e_mu, e_sigma = Ssta.Block_ssta.validate_against_mc blk ~reference:mc in
  Alcotest.(check bool) (Printf.sprintf "e_mu %.3f%% < 1%%" e_mu) true (e_mu < 1.0);
  Alcotest.(check bool) (Printf.sprintf "e_sigma %.2f%% < 12%%" e_sigma) true (e_sigma < 12.0)

let test_block_ssta_structure () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let blk = Ssta.Block_ssta.run s ~models:(Ssta.Algorithm2.models a2) in
  Alcotest.(check int) "endpoints" (Array.length s.Ssta.Experiment.sta.Sta.Timing.endpoints)
    (Array.length blk.Ssta.Block_ssta.endpoint_forms);
  Alcotest.(check int) "basis dim = 4r" (4 * Ssta.Algorithm2.r a2) blk.Ssta.Block_ssta.basis_dim;
  Alcotest.(check bool) "sigma positive" true (Ssta.Block_ssta.sigma blk > 0.0);
  (* worst-form mean must be at least every endpoint mean *)
  Array.iter
    (fun (f : Ssta.Canonical.t) ->
      Alcotest.(check bool) "worst dominates" true
        (Ssta.Block_ssta.mean blk >= f.Ssta.Canonical.mean -. 1e-9))
    blk.Ssta.Block_ssta.endpoint_forms

let test_block_ssta_criticalities () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let blk = Ssta.Block_ssta.run s ~models:(Ssta.Algorithm2.models a2) in
  let crit = Ssta.Block_ssta.criticalities ~samples:5000 ~seed:2 blk in
  check_close ~tol:1e-9 "sums to 1" 1.0 (Util.Arrayx.sum crit);
  Array.iter
    (fun c -> Alcotest.(check bool) "in [0,1]" true (c >= 0.0 && c <= 1.0))
    crit;
  (* the endpoint with the largest mean should carry nontrivial criticality *)
  let means = Array.map (fun (f : Ssta.Canonical.t) -> f.Ssta.Canonical.mean) blk.Ssta.Block_ssta.endpoint_forms in
  Alcotest.(check bool) "dominant endpoint critical" true
    (crit.(Util.Arrayx.argmax means) > 0.2)

let test_block_ssta_criticalities_jobs_bit_identical () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let blk = Ssta.Block_ssta.run s ~models:(Ssta.Algorithm2.models a2) in
  (* 1500 samples spans full and ragged 256-sample batches *)
  let c1 = Ssta.Block_ssta.criticalities ~samples:1500 ~seed:9 ~jobs:1 blk in
  let c2 = Ssta.Block_ssta.criticalities ~samples:1500 ~seed:9 ~jobs:2 blk in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float c2.(i) then
        Alcotest.failf "criticality %d differs across jobs: %h vs %h" i v c2.(i))
    c1

let test_block_ssta_criticalities_traced () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let blk = Ssta.Block_ssta.run s ~models:(Ssta.Algorithm2.models a2) in
  Util.Trace.enable ();
  Fun.protect ~finally:Util.Trace.disable @@ fun () ->
  Util.Trace.reset ();
  ignore (Ssta.Block_ssta.criticalities ~samples:1234 ~seed:3 blk);
  Alcotest.(check int) "mc_samples counts every draw" 1234
    (Util.Trace.value Util.Trace.mc_samples);
  ignore (Ssta.Block_ssta.criticalities ~samples:100 ~seed:3 ~jobs:2 blk);
  Alcotest.(check int) "accumulates across calls and jobs" 1334
    (Util.Trace.value Util.Trace.mc_samples)

(* Clark's max_many is a left fold of a non-associative operator: the
   result is order-sensitive in its third moment but must stay stable in
   mean/sigma under permutation, so the worst form over endpoints does not
   hinge on the order the endpoints are listed in. *)
let test_clark_max_many_permutation_stable () =
  let rng = Prng.Rng.create ~seed:41 in
  let forms =
    List.init 7 (fun i ->
        canon
          ~mean:(10.0 +. (2.0 *. float_of_int i *. Prng.Rng.uniform rng))
          ~sens:(Array.init 3 (fun _ -> Prng.Gaussian.draw rng))
          ~indep:(Float.abs (Prng.Gaussian.draw rng)))
  in
  let base = Ssta.Canonical.max_many forms in
  let permutations =
    [ List.rev forms;
      (match forms with a :: b :: rest -> b :: a :: rest | l -> l);
      (match List.rev forms with a :: rest -> rest @ [ a ] | l -> l) ]
  in
  List.iteri
    (fun pi perm ->
      let m = Ssta.Canonical.max_many perm in
      let tag = Printf.sprintf "perm %d" pi in
      Alcotest.(check bool)
        (tag ^ " mean stable")
        true
        (Float.abs (m.Ssta.Canonical.mean -. base.Ssta.Canonical.mean)
        < 0.01 *. Float.abs base.Ssta.Canonical.mean);
      Alcotest.(check bool)
        (tag ^ " sigma stable")
        true
        (Float.abs (Ssta.Canonical.sigma m -. Ssta.Canonical.sigma base)
        < 0.05 *. Ssta.Canonical.sigma base))
    permutations;
  (* associativity up to re-Gaussianization: pairwise tree vs fold *)
  let tree =
    match forms with
    | [ a; b; c; d; e; f; g ] ->
        Ssta.Canonical.max_clark
          (Ssta.Canonical.max_clark
             (Ssta.Canonical.max_clark a b)
             (Ssta.Canonical.max_clark c d))
          (Ssta.Canonical.max_clark (Ssta.Canonical.max_clark e f) g)
    | _ -> assert false
  in
  Alcotest.(check bool) "tree vs fold mean" true
    (Float.abs (tree.Ssta.Canonical.mean -. base.Ssta.Canonical.mean)
    < 0.01 *. Float.abs base.Ssta.Canonical.mean);
  Alcotest.(check bool) "tree vs fold sigma" true
    (Float.abs (Ssta.Canonical.sigma tree -. Ssta.Canonical.sigma base)
    < 0.05 *. Ssta.Canonical.sigma base)

(* A digest of every endpoint form's mean, indep and sens bits. *)
let forms_digest (forms : Ssta.Canonical.t array) =
  let b = Buffer.create 4096 in
  let add v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  Array.iter
    (fun (f : Ssta.Canonical.t) ->
      add f.Ssta.Canonical.mean;
      add f.Ssta.Canonical.indep;
      Array.iter add f.Ssta.Canonical.sens)
    forms;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [Block_ssta.run] pinned to its bits: worst mean and sigma as %h and a
   digest of every endpoint form, on c880 and on a generated netlist with
   DFFs, both under [fast_config]'s models *)
let test_block_ssta_golden () =
  let models = Ssta.Algorithm2.models (Lazy.force a2_fixture) in
  let pin label netlist ~mean ~sigma ~digest =
    let blk = Ssta.Block_ssta.run (Ssta.Experiment.setup_circuit netlist) ~models in
    Alcotest.(check string) (label ^ " worst mean") mean
      (Printf.sprintf "%h" (Ssta.Block_ssta.mean blk));
    Alcotest.(check string) (label ^ " worst sigma") sigma
      (Printf.sprintf "%h" (Ssta.Block_ssta.sigma blk));
    Alcotest.(check string) (label ^ " endpoint forms") digest
      (forms_digest blk.Ssta.Block_ssta.endpoint_forms)
  in
  pin "c880" (Circuit.Generator.generate_paper "c880") ~mean:"0x1.36bb7ca887f8bp+12"
    ~sigma:"0x1.e12773cf3eed2p+5" ~digest:"5442161782fa2464552aee3c4318447b";
  pin "generated with DFFs"
    (Circuit.Generator.generate
       { Circuit.Generator.name = "golden"; n_gates = 150; n_inputs = 8; n_outputs = 5;
         dff_fraction = 0.2; seed = 11 })
    ~mean:"0x1.a0cfc3304db81p+11" ~sigma:"0x1.72a9fd968dd88p+5"
    ~digest:"d77914a5c583f2cd9b0aba5bcf26aa50"

let same_form (a : Ssta.Canonical.t) (b : Ssta.Canonical.t) =
  same_bits a.Ssta.Canonical.mean b.Ssta.Canonical.mean
  && same_bits a.Ssta.Canonical.indep b.Ssta.Canonical.indep
  && Array.length a.Ssta.Canonical.sens = Array.length b.Ssta.Canonical.sens
  && Array.for_all2 same_bits a.Ssta.Canonical.sens b.Ssta.Canonical.sens

(* the size of an edit's cone by breadth-first search over fanouts: the
   [seeds] and everything downstream of them short of a DFF *)
let cone_oracle (netlist : Circuit.Netlist.t) seeds =
  let gates = netlist.Circuit.Netlist.gates in
  let fanouts = Circuit.Netlist.fanouts netlist in
  let seen = Array.make (Array.length gates) false in
  let queue = Queue.create () in
  let visit g =
    if not seen.(g) then begin
      seen.(g) <- true;
      Queue.add g queue
    end
  in
  List.iter visit seeds;
  while not (Queue.is_empty queue) do
    Array.iter
      (fun h -> if gates.(h).Circuit.Netlist.kind <> Circuit.Gate.Dff then visit h)
      fanouts.(Queue.pop queue)
  done;
  Array.fold_left (fun n s -> if s then n + 1 else n) 0 seen

(* [Block_ssta.rerun] of one to three same-arity swaps on a generated
   netlist (up to 30 % DFFs) equals a flat [run] of the edited design on
   its own fresh placement, every gate's arrival and slew form bit for
   bit. Each swap picks a gate that drives a DFF, one driven by a primary
   input, or any logic gate. *)
let prop_rerun_equals_flat =
  let gen =
    QCheck.Gen.(
      let* n_gates = int_range 12 90 in
      let* dff_pct = int_bound 30 in
      let* gen_seed = int_bound 100_000 in
      let* n_swaps = int_range 1 3 in
      let* picks = list_repeat n_swaps (pair (int_bound 2) (int_bound 1_000_000)) in
      return (n_gates, dff_pct, gen_seed, picks))
  in
  let print (n, d, s, picks) =
    Printf.sprintf "(gates=%d dff=%d%% seed=%d picks=[%s])" n d s
      (String.concat "; " (List.map (fun (c, p) -> Printf.sprintf "%d,%d" c p) picks))
  in
  QCheck.Test.make ~name:"Block_ssta.rerun = flat run of the edited design, bit for bit"
    ~count:200 (QCheck.make gen ~print)
    (fun (n_gates, dff_pct, gen_seed, picks) ->
      let module G = Circuit.Gate in
      let module N = Circuit.Netlist in
      let netlist =
        Circuit.Generator.generate
          { Circuit.Generator.name = "q"; n_gates; n_inputs = 6; n_outputs = 4;
            dff_fraction = float_of_int dff_pct /. 100.0; seed = gen_seed }
      in
      let gates = Array.to_list netlist.N.gates in
      let fanouts = Circuit.Netlist.fanouts netlist in
      let kind g = netlist.N.gates.(g).N.kind in
      let logic =
        List.filter (fun (g : N.gate) -> kind g.N.id <> G.Input && kind g.N.id <> G.Dff) gates
      in
      let drives_dff =
        List.filter (fun (g : N.gate) -> Array.exists (fun h -> kind h = G.Dff) fanouts.(g.N.id)) logic
      in
      let from_input =
        List.filter (fun (g : N.gate) -> Array.exists (fun f -> kind f = G.Input) g.N.fanins) logic
      in
      let swap edited (cls, p) =
        let pool =
          match ((match cls with 0 -> drives_dff | 1 -> from_input | _ -> logic), logic) with
          | [], pool | pool, _ -> pool
        in
        let g = List.nth pool (p mod List.length pool) in
        let current = edited.N.gates.(g.N.id).N.kind in
        let kinds =
          List.filter (fun k -> k <> current)
            (if G.arity current = 1 then [ G.Inv; G.Buf ]
             else [ G.Nand2; G.Nor2; G.And2; G.Or2; G.Xor2; G.Xnor2 ])
        in
        let kind = List.nth kinds (p / 7 mod List.length kinds) in
        match Hier.Edit.apply edited { Hier.Edit.gate = g.N.id; kind } with
        | Ok nl -> nl
        | Error m -> failwith m
      in
      let edited = List.fold_left swap netlist picks in
      let models = Ssta.Algorithm2.models (Lazy.force a2_fixture) in
      let parent = Ssta.Block_ssta.analyse (Ssta.Experiment.setup_circuit netlist) ~models in
      let derived = Ssta.Experiment.setup_edit parent.Ssta.Block_ssta.setup edited in
      let inc = Ssta.Block_ssta.rerun parent derived in
      let fresh = Ssta.Experiment.setup_circuit edited in
      (* the derived setup is the fresh one: loads, order, endpoints *)
      let sta (s : Ssta.Experiment.circuit_setup) = s.Ssta.Experiment.sta in
      let same_setup =
        Array.for_all2 same_bits (sta derived).Sta.Timing.c_loads (sta fresh).Sta.Timing.c_loads
        && (sta derived).Sta.Timing.order = (sta fresh).Sta.Timing.order
        && (sta derived).Sta.Timing.endpoints = (sta fresh).Sta.Timing.endpoints
        && derived.Ssta.Experiment.locations = fresh.Ssta.Experiment.locations
      in
      let flat = Ssta.Block_ssta.run fresh ~models in
      (* the cone's seeds: the swapped gates and, from the two designs' own
         setups, the gates whose load changed *)
      let old_loads = parent.Ssta.Block_ssta.setup.Ssta.Experiment.sta.Sta.Timing.c_loads in
      let seeds =
        List.filter_map
          (fun (g : N.gate) ->
            let id = g.N.id in
            if
              edited.N.gates.(id).N.kind <> g.N.kind
              || not (same_bits old_loads.(id) fresh.Ssta.Experiment.sta.Sta.Timing.c_loads.(id))
            then Some id
            else None)
          gates
      in
      let same_forms a b = Array.length a = Array.length b && Array.for_all2 same_form a b in
      same_setup
      && same_forms inc.Ssta.Block_ssta.arrival_forms flat.Ssta.Block_ssta.arrival_forms
      && same_forms inc.Ssta.Block_ssta.slew_forms flat.Ssta.Block_ssta.slew_forms
      && same_forms inc.Ssta.Block_ssta.endpoint_forms flat.Ssta.Block_ssta.endpoint_forms
      && same_form inc.Ssta.Block_ssta.worst flat.Ssta.Block_ssta.worst
      && inc.Ssta.Block_ssta.gates_recomputed = cone_oracle edited seeds
      && flat.Ssta.Block_ssta.gates_recomputed = N.size edited)

(* a design with other connectivity or another placement is no edit *)
let test_block_ssta_rerun_rejects_other_designs () =
  let s = Lazy.force setup in
  let models = Ssta.Algorithm2.models (Lazy.force a2_fixture) in
  let parent = Ssta.Block_ssta.analyse s ~models in
  let rejects what other =
    Alcotest.(check bool) what true
      (match Ssta.Block_ssta.rerun parent other with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "another placement"
    (Ssta.Experiment.setup_circuit ~placement_seed:2 (Lazy.force small_netlist));
  let other =
    Circuit.Generator.generate
      { Circuit.Generator.name = "small"; n_gates = 120; n_inputs = 10;
        n_outputs = 6; dff_fraction = 0.0; seed = 8 }
  in
  rejects "another netlist" (Ssta.Experiment.setup_circuit other);
  Alcotest.(check bool) "setup_edit refuses another netlist" true
    (match Ssta.Experiment.setup_edit s other with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let unedited = Ssta.Block_ssta.rerun parent (Ssta.Experiment.setup_edit s s.Ssta.Experiment.netlist) in
  Alcotest.(check int) "no swap, empty cone" 0 unedited.Ssta.Block_ssta.gates_recomputed;
  Alcotest.(check bool) "no swap, the parent's worst form" true
    (same_form unedited.Ssta.Block_ssta.worst parent.Ssta.Block_ssta.result.Ssta.Block_ssta.worst)

let test_block_ssta_bad_models () =
  let s = Lazy.force setup in
  let a2 = Lazy.force a2_fixture in
  let models = Ssta.Algorithm2.models a2 in
  Alcotest.(check bool) "raises" true
    (match Ssta.Block_ssta.run s ~models:(Array.sub models 0 2) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "ssta"
    [
      ( "process",
        [
          Alcotest.test_case "paper default valid" `Quick test_process_default_valid;
          Alcotest.test_case "distinct kernels valid" `Quick test_process_distinct_valid;
          Alcotest.test_case "invalid kernel detected" `Quick test_process_invalid_kernel_detected;
        ] );
      ( "setup",
        [ Alcotest.test_case "locations match logic gates" `Quick test_setup_locations_match_logic_gates ] );
      ( "algorithm1",
        [
          Alcotest.test_case "block shapes" `Quick test_a1_block_shapes;
          Alcotest.test_case "standard-normal marginals" `Quick test_a1_marginals_standard_normal;
          Alcotest.test_case "correlation follows kernel" `Quick test_a1_correlation_follows_kernel;
          Alcotest.test_case "parameters independent" `Quick test_a1_parameters_mutually_independent;
          Alcotest.test_case "memory estimate" `Quick test_a1_memory_estimate;
        ] );
      ( "algorithm2",
        [
          Alcotest.test_case "structure" `Quick test_a2_structure;
          Alcotest.test_case "kernel sharing" `Quick test_a2_shared_kernel_shares_model;
          Alcotest.test_case "pair ladder matches 200 pairs" `Quick test_a2_pair_ladder;
          Alcotest.test_case "fixed r solves computed_pairs" `Quick
            test_a2_fixed_r_solves_computed_pairs;
          Alcotest.test_case "closure-carrying kernels (regression)" `Quick
            test_a2_prepare_closure_kernels;
          Alcotest.test_case "block shapes" `Quick test_a2_block_shapes;
          Alcotest.test_case "correlation follows kernel" `Quick test_a2_correlation_follows_kernel;
        ] );
      ( "grid_pca",
        [
          Alcotest.test_case "shapes and variance" `Quick test_grid_pca_shapes_and_variance;
          Alcotest.test_case "same cell fully correlated" `Quick test_grid_pca_same_cell_fully_correlated;
          Alcotest.test_case "r out of range" `Quick test_grid_pca_r_out_of_range;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "algebra" `Quick test_canonical_algebra;
          Alcotest.test_case "covariance" `Quick test_canonical_covariance;
          Alcotest.test_case "dimension mismatch" `Quick test_canonical_mismatch;
          Alcotest.test_case "negative indep rejected" `Quick test_canonical_negative_indep;
          Alcotest.test_case "Clark max vs Monte Carlo" `Slow test_clark_max_vs_mc;
          Alcotest.test_case "max of identical forms" `Quick test_clark_max_identical_forms;
          Alcotest.test_case "max with dominant input" `Quick test_clark_max_dominant;
          Alcotest.test_case "max_many empty" `Quick test_max_many_empty;
          Alcotest.test_case "max_many permutation stable" `Quick
            test_clark_max_many_permutation_stable;
          Alcotest.test_case "quantile" `Quick test_canonical_quantile;
        ] );
      ( "block_ssta",
        [
          Alcotest.test_case "matches MC" `Slow test_block_ssta_matches_mc;
          Alcotest.test_case "structure" `Quick test_block_ssta_structure;
          Alcotest.test_case "criticalities" `Quick test_block_ssta_criticalities;
          Alcotest.test_case "criticalities jobs bit-identical" `Quick
            test_block_ssta_criticalities_jobs_bit_identical;
          Alcotest.test_case "criticalities traced" `Quick
            test_block_ssta_criticalities_traced;
          Alcotest.test_case "bad model count" `Quick test_block_ssta_bad_models;
          Alcotest.test_case "golden bits" `Quick test_block_ssta_golden;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |]) prop_rerun_equals_flat;
          Alcotest.test_case "rerun rejects other designs" `Quick
            test_block_ssta_rerun_rejects_other_designs;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "deterministic" `Quick test_run_mc_deterministic;
          Alcotest.test_case "batching statistically consistent" `Quick test_run_mc_batching_consistent;
          Alcotest.test_case "algorithms agree (paper claim)" `Slow test_algorithms_agree;
          Alcotest.test_case "compare metrics" `Quick test_compare_metrics_known;
          Alcotest.test_case "bad n rejected" `Quick test_run_mc_rejects_bad_n;
          Alcotest.test_case "bad sampler shape rejected" `Quick
            test_run_mc_rejects_bad_sampler_shape;
          Alcotest.test_case "single sample" `Quick test_run_mc_single_sample;
          Alcotest.test_case "jobs bit-identical" `Quick test_run_mc_jobs_bit_identical;
          Alcotest.test_case "c880 golden bits" `Quick test_run_mc_c880_golden;
          QCheck_alcotest.to_alcotest prop_run_mc_matches_oracle;
          Alcotest.test_case "compare skips zero-sigma endpoints" `Quick
            test_compare_skips_zero_sigma_endpoints;
          Alcotest.test_case "compare reports excluded endpoints" `Quick
            test_compare_excluded_endpoint_count;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "Fail policy names the faulted batch" `Quick
            test_run_mc_fail_policy_names_fault;
          Alcotest.test_case "Skip policy bit-identical across jobs" `Quick
            test_run_mc_skip_policy_bit_identical_across_jobs;
          Alcotest.test_case "all samples skipped raises" `Quick
            test_run_mc_all_skipped_raises;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "cholesky end to end" `Quick test_pipeline_cholesky_end_to_end;
          Alcotest.test_case "kle staged flow" `Quick test_pipeline_kle_stages;
          Alcotest.test_case "invalid kernel rejected" `Quick
            test_pipeline_rejects_invalid_kernel;
          Alcotest.test_case "mesh angle floor" `Quick test_pipeline_mesh_angle_floor;
          Alcotest.test_case "degraded factorization recorded" `Quick
            test_pipeline_degraded_factorization_recorded;
        ] );
    ]
