let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------- Rng ---------- *)

let test_determinism () =
  let a = Prng.Rng.create ~seed:42 and b = Prng.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_close ~tol:0.0 "same stream" (Prng.Rng.uniform a) (Prng.Rng.uniform b)
  done

let test_seed_sensitivity () =
  let a = Prng.Rng.create ~seed:1 and b = Prng.Rng.create ~seed:2 in
  let va = Array.init 10 (fun _ -> Prng.Rng.uniform a) in
  let vb = Array.init 10 (fun _ -> Prng.Rng.uniform b) in
  Alcotest.(check bool) "different streams" true (va <> vb)

let test_uniform_range_bounds () =
  let rng = Prng.Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.Rng.uniform rng in
    Alcotest.(check bool) "[0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_uniform_moments () =
  let rng = Prng.Rng.create ~seed:11 in
  let n = 100_000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.Rng.uniform rng in
    acc := !acc +. v;
    acc2 := !acc2 +. (v *. v)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  check_close ~tol:0.01 "mean 1/2" 0.5 mean;
  check_close ~tol:0.01 "var 1/12" (1.0 /. 12.0) var

let test_uniform_bins_chi2 () =
  (* 10 equal bins over 100k draws: chi2(9) should stay below ~30 *)
  let rng = Prng.Rng.create ~seed:13 in
  let bins = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.Rng.uniform rng in
    let b = min 9 (int_of_float (v *. 10.0)) in
    bins.(b) <- bins.(b) + 1
  done;
  let expected = float_of_int n /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 bins
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 = %.2f < 30" chi2) true (chi2 < 30.0)

let test_int_below_range_and_coverage () =
  let rng = Prng.Rng.create ~seed:17 in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    let v = Prng.Rng.int_below rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    seen.(v) <- true
  done;
  Alcotest.(check bool) "all values seen" true (Array.for_all Fun.id seen)

let test_int_below_invalid () =
  let rng = Prng.Rng.create ~seed:1 in
  Alcotest.check_raises "n=0" (Invalid_argument "Rng.int_below: requires n > 0")
    (fun () -> ignore (Prng.Rng.int_below rng 0))

let test_uniform_range () =
  let rng = Prng.Rng.create ~seed:19 in
  for _ = 1 to 100 do
    let v = Prng.Rng.uniform_range rng ~lo:(-3.0) ~hi:2.0 in
    Alcotest.(check bool) "in range" true (v >= -3.0 && v < 2.0)
  done;
  Alcotest.check_raises "bad range" (Invalid_argument "Rng.uniform_range: requires lo < hi")
    (fun () -> ignore (Prng.Rng.uniform_range rng ~lo:1.0 ~hi:1.0))

let test_split_independence () =
  let a = Prng.Rng.create ~seed:23 in
  let b = Prng.Rng.split a in
  let va = Array.init 20 (fun _ -> Prng.Rng.uniform a) in
  let vb = Array.init 20 (fun _ -> Prng.Rng.uniform b) in
  Alcotest.(check bool) "streams differ" true (va <> vb)

let test_copy_snapshot () =
  let a = Prng.Rng.create ~seed:29 in
  ignore (Prng.Rng.uniform a);
  let b = Prng.Rng.copy a in
  check_close ~tol:0.0 "same next" (Prng.Rng.uniform a) (Prng.Rng.uniform b)

let test_shuffle_permutation () =
  let rng = Prng.Rng.create ~seed:31 in
  let a = Array.init 50 (fun i -> i) in
  Prng.Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ---------- Gaussian ---------- *)

let test_gaussian_moments () =
  let rng = Prng.Rng.create ~seed:37 in
  let n = 200_000 in
  let acc = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 and acc4 = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.Gaussian.draw rng in
    acc := !acc +. v;
    acc2 := !acc2 +. (v *. v);
    acc3 := !acc3 +. (v *. v *. v);
    acc4 := !acc4 +. (v *. v *. v *. v)
  done;
  let nf = float_of_int n in
  check_close ~tol:0.02 "mean 0" 0.0 (!acc /. nf);
  check_close ~tol:0.03 "variance 1" 1.0 (!acc2 /. nf);
  check_close ~tol:0.05 "skew 0" 0.0 (!acc3 /. nf);
  check_close ~tol:0.1 "kurtosis 3" 3.0 (!acc4 /. nf)

let test_gaussian_tail_fraction () =
  (* P(|X| > 1.96) ~ 0.05 *)
  let rng = Prng.Rng.create ~seed:41 in
  let n = 100_000 in
  let count = ref 0 in
  for _ = 1 to n do
    if Float.abs (Prng.Gaussian.draw rng) > 1.96 then incr count
  done;
  check_close ~tol:0.005 "tail mass" 0.05 (float_of_int !count /. float_of_int n)

let test_gaussian_fill_matches_vector () =
  let a = Prng.Rng.create ~seed:43 and b = Prng.Rng.create ~seed:43 in
  let v1 = Prng.Gaussian.vector a 17 in
  let v2 = Array.make 17 0.0 in
  Prng.Gaussian.fill b v2;
  Alcotest.(check (array (float 0.0))) "same" v1 v2

let test_gaussian_matrix_shape () =
  let rng = Prng.Rng.create ~seed:47 in
  let m = Prng.Gaussian.matrix rng ~rows:5 ~cols:9 in
  Alcotest.(check int) "rows" 5 (Linalg.Mat.rows m);
  Alcotest.(check int) "cols" 9 (Linalg.Mat.cols m)

(* ---------- Mvn ---------- *)

(* the streams below were computed before the generator state was
   unboxed; any change to the draw order or the arithmetic shows here *)
let stream_digest f =
  let b = Buffer.create 16384 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_bits64_golden () =
  let rng = Prng.Rng.create ~seed:42 in
  let first = Prng.Rng.bits64 rng in
  let second = Prng.Rng.bits64 rng in
  Alcotest.(check int64) "first" (-3425465463722317665L) first;
  Alcotest.(check int64) "second" 5881210131331364753L second;
  let rng = Prng.Rng.create ~seed:42 in
  Alcotest.(check string) "first 1000" "81f8653fd42adcb3beebdf45d819782e"
    (stream_digest (fun b ->
         for _ = 1 to 1000 do
           Printf.bprintf b "%Ld\n" (Prng.Rng.bits64 rng)
         done));
  (* split, substream, int_below and copy derive from the same state *)
  let rng = Prng.Rng.create ~seed:3 in
  let s = Prng.Rng.split rng in
  Alcotest.(check int64) "split" (-1225541115960542028L) (Prng.Rng.bits64 s);
  Alcotest.(check int64) "parent after split" (-6494774918105765596L) (Prng.Rng.bits64 rng);
  Alcotest.(check int64) "substream" (-4972421132930043179L)
    (Prng.Rng.bits64 (Prng.Rng.substream ~seed:3 ~stream:5));
  Alcotest.(check int) "int_below" 543 (Prng.Rng.int_below rng 1000);
  let copied = Prng.Rng.uniform (Prng.Rng.copy rng) in
  Alcotest.(check string) "uniform of a copy" "0x1.b08c8e71aa4b5p-1" (Printf.sprintf "%h" copied);
  Alcotest.(check (float 0.0)) "copy leaves the original in step" copied (Prng.Rng.uniform rng)

let test_gaussian_golden () =
  let rng = Prng.Rng.create ~seed:42 in
  let v = Prng.Gaussian.vector rng 1000 in
  Alcotest.(check string) "first three" "0x1.f679d98b6ab7bp-1 -0x1.21a610c887574p-1 0x1.571f94d19c30ap+0"
    (Printf.sprintf "%h %h %h" v.(0) v.(1) v.(2));
  Alcotest.(check string) "first 1000" "f84932a785b5a5c9148b138a73835a1a"
    (stream_digest (fun b -> Array.iter (fun x -> Printf.bprintf b "%h\n" x) v));
  (* odd rows drop each row's last spare value; draw keeps the first *)
  let rng = Prng.Rng.create ~seed:42 in
  let m = Prng.Gaussian.matrix rng ~rows:10 ~cols:25 in
  Alcotest.(check string) "matrix, then draws" "e5f271d010346dd91f9a2c6c6b840659"
    (stream_digest (fun b ->
         for i = 0 to 9 do
           for j = 0 to 24 do
             Printf.bprintf b "%h\n" (Linalg.Mat.get m i j)
           done
         done;
         for _ = 1 to 10 do
           Printf.bprintf b "%h\n" (Prng.Gaussian.draw rng)
         done))

let test_gaussian_matrix_minor_words () =
  (* the generator state is unboxed and polar pairs go straight into the
     output: ~36 minor words per entry before, 0 when Rng.uniform is
     inlined, and its boxed float (2 words per uniform) otherwise *)
  let rng = Prng.Rng.create ~seed:1 in
  let before = Gc.minor_words () in
  let m = Prng.Gaussian.matrix rng ~rows:1000 ~cols:25 in
  let per_entry = (Gc.minor_words () -. before) /. 25_000.0 in
  ignore (Sys.opaque_identity m);
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per entry < 4" per_entry) true
    (per_entry < 4.0)

let test_mvn_covariance_recovery () =
  (* target 3x3 covariance; check the sample covariance converges to it *)
  let k =
    Linalg.Mat.of_arrays
      [| [| 1.0; 0.6; 0.2 |]; [| 0.6; 1.0; 0.5 |]; [| 0.2; 0.5; 1.0 |] |]
  in
  let mvn = Prng.Mvn.of_covariance k in
  let rng = Prng.Rng.create ~seed:53 in
  let n = 50_000 in
  let samples = Prng.Mvn.sample_matrix mvn rng ~n in
  let cov = Stats.Correlation.column_covariance samples in
  Alcotest.(check bool) "covariance close" true (Linalg.Mat.max_abs_diff k cov < 0.03)

let test_mvn_jitter_reporting () =
  let ones = Linalg.Mat.init 5 5 (fun _ _ -> 1.0) in
  let mvn = Prng.Mvn.of_covariance ones in
  Alcotest.(check bool) "jitter > 0 on singular" true (Prng.Mvn.jitter_used mvn > 0.0);
  let spd = Linalg.Mat.identity 5 in
  Alcotest.(check bool) "no jitter on identity" true
    (Prng.Mvn.jitter_used (Prng.Mvn.of_covariance spd) = 0.0)

let test_mvn_identity_gives_iid () =
  let mvn = Prng.Mvn.of_covariance (Linalg.Mat.identity 4) in
  let rng = Prng.Rng.create ~seed:59 in
  let s = Prng.Mvn.sample mvn rng in
  Alcotest.(check int) "dim" 4 (Array.length s);
  Alcotest.(check int) "dim accessor" 4 (Prng.Mvn.dim mvn)

let test_mvn_fallback_chain () =
  let diag = Util.Diag.create () in
  let exact = Prng.Mvn.of_covariance ~diag (Linalg.Mat.identity 4) in
  Alcotest.(check bool) "exact repair" true (Prng.Mvn.repair_used exact = Prng.Mvn.Exact);
  Alcotest.(check bool) "exact not degraded" false (Prng.Mvn.degraded exact);
  Alcotest.(check int) "no events for exact" 0 (Util.Diag.count diag);
  (* rank-1 positive semidefinite: plain Cholesky fails, jitter rescues *)
  let ones = Linalg.Mat.init 5 5 (fun _ _ -> 1.0) in
  let jit = Prng.Mvn.of_covariance ~diag ones in
  (match Prng.Mvn.repair_used jit with
  | Prng.Mvn.Jittered j -> Alcotest.(check bool) "jitter positive" true (j > 0.0)
  | _ -> Alcotest.fail "expected Jittered repair");
  Alcotest.(check bool) "degraded" true (Prng.Mvn.degraded jit);
  Alcotest.(check bool) "degradation recorded" true
    (Util.Diag.count ~code:`Degraded_fallback diag > 0)

let test_mvn_psd_repair_indefinite () =
  let diag = Util.Diag.create () in
  (* eigenvalues 3 and -1: genuinely indefinite, beyond any jitter *)
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let mvn = Prng.Mvn.of_covariance ~diag a in
  (match Prng.Mvn.repair_used mvn with
  | Prng.Mvn.Eig_clipped { clipped; min_eigenvalue; _ } ->
      Alcotest.(check int) "one clipped eigenvalue" 1 clipped;
      check_close ~tol:1e-9 "most negative eigenvalue" (-1.0) min_eigenvalue
  | _ -> Alcotest.fail "expected Eig_clipped repair");
  Alcotest.(check bool) "not-psd recorded" true (Util.Diag.count ~code:`Not_psd diag > 0);
  Alcotest.(check bool) "fallback recorded" true
    (Util.Diag.count ~code:`Degraded_fallback diag > 0);
  (* the repaired sampler targets the clipped projection
     Q diag(3, 0) Qᵀ = [[1.5, 1.5], [1.5, 1.5]] *)
  let rng = Prng.Rng.create ~seed:61 in
  let cov =
    Stats.Correlation.column_covariance (Prng.Mvn.sample_matrix mvn rng ~n:50_000)
  in
  let expected = Linalg.Mat.of_arrays [| [| 1.5; 1.5 |]; [| 1.5; 1.5 |] |] in
  Alcotest.(check bool) "covariance of repaired target" true
    (Linalg.Mat.max_abs_diff expected cov < 0.05)

let test_mvn_rank_deficient_recovers () =
  (* rank-2 PSD 5x5 from two outer products; sampling must still work and
     reproduce the singular target closely *)
  let u = [| 1.0; -1.0; 2.0; 0.0; 0.5 |] and v = [| 0.0; 1.0; 1.0; -1.0; 2.0 |] in
  let a = Linalg.Mat.init 5 5 (fun i j -> (u.(i) *. u.(j)) +. (v.(i) *. v.(j))) in
  let diag = Util.Diag.create () in
  let mvn = Prng.Mvn.of_covariance ~diag a in
  Alcotest.(check bool) "degraded on rank-deficient" true (Prng.Mvn.degraded mvn);
  let rng = Prng.Rng.create ~seed:67 in
  let cov =
    Stats.Correlation.column_covariance (Prng.Mvn.sample_matrix mvn rng ~n:50_000)
  in
  Alcotest.(check bool) "covariance recovered" true (Linalg.Mat.max_abs_diff a cov < 0.15)

let test_mvn_non_finite_rejected () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; Float.nan |]; [| Float.nan; 1.0 |] |] in
  Alcotest.(check bool) "raises typed failure" true
    (match Prng.Mvn.of_covariance a with
    | _ -> false
    | exception Util.Diag.Failure e -> e.Util.Diag.code = `Non_finite)

(* ---------- Lowdisc (Halton QMC) ---------- *)

let test_primes () =
  Alcotest.(check (array int)) "first 8" [| 2; 3; 5; 7; 11; 13; 17; 19 |]
    (Prng.Lowdisc.primes 8)

let test_halton_unit_interval () =
  let seq = Prng.Lowdisc.create ~dim:5 () in
  for _ = 1 to 500 do
    Array.iter
      (fun v -> Alcotest.(check bool) "[0,1)" true (v >= 0.0 && v < 1.0))
      (Prng.Lowdisc.next_uniform seq)
  done

let test_halton_known_prefix () =
  (* base-2 van der Corput: 1/2, 1/4, 3/4, 1/8, ... *)
  let seq = Prng.Lowdisc.create ~dim:1 () in
  List.iter
    (fun expected ->
      check_close ~tol:1e-14 "vdc" expected (Prng.Lowdisc.next_uniform seq).(0))
    [ 0.5; 0.25; 0.75; 0.125; 0.625 ]

let test_halton_stratification_beats_random () =
  (* 1-D discrepancy proxy: max gap between sorted points; Halton gaps are
     near-uniform, random gaps have a long tail *)
  let n = 512 in
  let max_gap pts =
    let a = Array.copy pts in
    Array.sort Float.compare a;
    let g = ref a.(0) in
    for i = 1 to n - 1 do
      g := Float.max !g (a.(i) -. a.(i - 1))
    done;
    Float.max !g (1.0 -. a.(n - 1))
  in
  let seq = Prng.Lowdisc.create ~dim:1 () in
  let halton = Array.init n (fun _ -> (Prng.Lowdisc.next_uniform seq).(0)) in
  let rng = Prng.Rng.create ~seed:4 in
  let random = Array.init n (fun _ -> Prng.Rng.uniform rng) in
  Alcotest.(check bool)
    (Printf.sprintf "halton gap %.4f < random gap %.4f" (max_gap halton) (max_gap random))
    true
    (max_gap halton < max_gap random)

let test_halton_shift_randomizes () =
  let a = Prng.Lowdisc.create ~shift_rng:(Prng.Rng.create ~seed:1) ~dim:3 () in
  let b = Prng.Lowdisc.create ~shift_rng:(Prng.Rng.create ~seed:2) ~dim:3 () in
  Alcotest.(check bool) "different shifts differ" true
    (Prng.Lowdisc.next_uniform a <> Prng.Lowdisc.next_uniform b)

let test_halton_normal_moments () =
  let seq = Prng.Lowdisc.create ~dim:2 () in
  let n = 4000 in
  let acc = Stats.Welford.create () in
  let m = Prng.Lowdisc.normal_matrix seq ~rows:n in
  for i = 0 to n - 1 do
    Stats.Welford.add acc (Linalg.Mat.get m i 0)
  done;
  check_close ~tol:0.02 "mean" 0.0 (Stats.Welford.mean acc);
  check_close ~tol:0.03 "std" 1.0 (Stats.Welford.std_dev acc)

let test_halton_matrix_shape () =
  let seq = Prng.Lowdisc.create ~dim:7 () in
  let m = Prng.Lowdisc.normal_matrix seq ~rows:11 in
  Alcotest.(check int) "rows" 11 (Linalg.Mat.rows m);
  Alcotest.(check int) "cols" 7 (Linalg.Mat.cols m)

let test_halton_dim_bounds () =
  Alcotest.(check bool) "dim 0 raises" true
    (match Prng.Lowdisc.create ~dim:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- qcheck ---------- *)

let prop_int_below_in_range =
  QCheck.Test.make ~name:"int_below stays in range" ~count:200
    (QCheck.pair (QCheck.int_range 1 1000) (QCheck.int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Prng.Rng.create ~seed in
      let v = Prng.Rng.int_below rng n in
      v >= 0 && v < n)

let prop_uniform_in_unit =
  QCheck.Test.make ~name:"uniform in [0,1)" ~count:200 (QCheck.int_range 0 100_000)
    (fun seed ->
      let rng = Prng.Rng.create ~seed in
      let v = Prng.Rng.uniform rng in
      v >= 0.0 && v < 1.0)

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "uniform bounds" `Quick test_uniform_range_bounds;
          Alcotest.test_case "uniform moments" `Quick test_uniform_moments;
          Alcotest.test_case "uniform chi-square" `Quick test_uniform_bins_chi2;
          Alcotest.test_case "int_below coverage" `Quick test_int_below_range_and_coverage;
          Alcotest.test_case "int_below invalid" `Quick test_int_below_invalid;
          Alcotest.test_case "uniform_range" `Quick test_uniform_range;
          Alcotest.test_case "split independence" `Quick test_split_independence;
          Alcotest.test_case "copy snapshots state" `Quick test_copy_snapshot;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "golden bits64 stream" `Quick test_bits64_golden;
        ] );
      ( "gaussian",
        [
          Alcotest.test_case "first four moments" `Quick test_gaussian_moments;
          Alcotest.test_case "tail fraction at 1.96" `Quick test_gaussian_tail_fraction;
          Alcotest.test_case "fill matches vector" `Quick test_gaussian_fill_matches_vector;
          Alcotest.test_case "matrix shape" `Quick test_gaussian_matrix_shape;
          Alcotest.test_case "golden stream" `Quick test_gaussian_golden;
          Alcotest.test_case "matrix minor words" `Quick test_gaussian_matrix_minor_words;
        ] );
      ( "mvn",
        [
          Alcotest.test_case "recovers target covariance" `Quick test_mvn_covariance_recovery;
          Alcotest.test_case "jitter reporting" `Quick test_mvn_jitter_reporting;
          Alcotest.test_case "identity covariance" `Quick test_mvn_identity_gives_iid;
          Alcotest.test_case "fallback chain reporting" `Quick test_mvn_fallback_chain;
          Alcotest.test_case "PSD repair of indefinite input" `Quick
            test_mvn_psd_repair_indefinite;
          Alcotest.test_case "rank-deficient covariance recovers" `Quick
            test_mvn_rank_deficient_recovers;
          Alcotest.test_case "non-finite covariance rejected" `Quick
            test_mvn_non_finite_rejected;
        ] );
      ( "lowdisc",
        [
          Alcotest.test_case "primes" `Quick test_primes;
          Alcotest.test_case "points in unit cube" `Quick test_halton_unit_interval;
          Alcotest.test_case "van der Corput prefix" `Quick test_halton_known_prefix;
          Alcotest.test_case "stratification beats random" `Quick test_halton_stratification_beats_random;
          Alcotest.test_case "random shifts differ" `Quick test_halton_shift_randomizes;
          Alcotest.test_case "normal transform moments" `Quick test_halton_normal_moments;
          Alcotest.test_case "matrix shape" `Quick test_halton_matrix_shape;
          Alcotest.test_case "dimension bounds" `Quick test_halton_dim_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_int_below_in_range; prop_uniform_in_unit ]
      );
    ]
