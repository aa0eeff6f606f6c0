module P = Geometry.Point

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let die = Geometry.Rect.unit_die

(* ---------- Grid ---------- *)

let test_grid_counts () =
  let g = Powergrid.Grid.create ~nodes_per_side:10 die in
  (* 100 nodes minus 5 default pads (4 corners + center) *)
  Alcotest.(check int) "free nodes" 95 (Powergrid.Grid.node_count g)

let test_grid_tiny_hand_computed () =
  (* 2x2 grid with pads on one diagonal: the two free nodes are the other
     diagonal, each connected to both pads with conductance 1, and not to
     each other => drop = I / 2 at the injected node, independent nodes *)
  let pads = [| P.make (-1.0) (-1.0); P.make 1.0 1.0 |] in
  let g = Powergrid.Grid.create ~nodes_per_side:2 ~edge_conductance:1.0 ~pads die in
  Alcotest.(check int) "two free" 2 (Powergrid.Grid.node_count g);
  let currents = [| 1.0; 0.0 |] in
  let v = Powergrid.Grid.solve g ~currents in
  check_close ~tol:1e-12 "injected node" 0.5 v.(0);
  check_close ~tol:1e-12 "other node" 0.0 v.(1)

let test_grid_superposition () =
  let g = Powergrid.Grid.create ~nodes_per_side:8 die in
  let n = Powergrid.Grid.node_count g in
  let i1 = Array.init n (fun i -> if i mod 3 = 0 then 1e-6 else 0.0) in
  let i2 = Array.init n (fun i -> if i mod 5 = 0 then 2e-6 else 0.0) in
  let sum = Array.init n (fun i -> i1.(i) +. i2.(i)) in
  let v1 = Powergrid.Grid.solve g ~currents:i1 in
  let v2 = Powergrid.Grid.solve g ~currents:i2 in
  let vs = Powergrid.Grid.solve g ~currents:sum in
  Array.iteri
    (fun i v -> check_close ~tol:1e-15 "linear" (v1.(i) +. v2.(i)) v)
    vs

let test_grid_drop_positive_and_monotone () =
  let g = Powergrid.Grid.create ~nodes_per_side:8 die in
  let n = Powergrid.Grid.node_count g in
  let base = Array.make n 1e-6 in
  let v = Powergrid.Grid.solve g ~currents:base in
  Array.iter (fun d -> Alcotest.(check bool) "positive drop" true (d > 0.0)) v;
  let double = Array.make n 2e-6 in
  check_close ~tol:1e-15 "doubling currents doubles max drop"
    (2.0 *. Powergrid.Grid.max_drop g ~currents:base)
    (Powergrid.Grid.max_drop g ~currents:double)

let test_grid_center_drop_largest_under_uniform_load () =
  (* with pads at corners+center, the max drop under uniform load sits away
     from the pads; verify the node attaining it is not adjacent to a pad *)
  let g = Powergrid.Grid.create ~nodes_per_side:12 die in
  let n = Powergrid.Grid.node_count g in
  let v = Powergrid.Grid.solve g ~currents:(Array.make n 1e-6) in
  let imax = Util.Arrayx.argmax v in
  let loc = Powergrid.Grid.node_location g imax in
  let pad_dist =
    Array.fold_left
      (fun acc (p : P.t) -> Float.min acc (P.dist loc p))
      infinity
      (Array.append (Geometry.Rect.corners die) [| Geometry.Rect.center die |])
  in
  Alcotest.(check bool)
    (Printf.sprintf "hot spot %.2f away from pads" pad_dist)
    true (pad_dist > 0.3)

let test_grid_nearest_node () =
  let g = Powergrid.Grid.create ~nodes_per_side:10 die in
  (* the exact corner is a pad: nearest node is None *)
  Alcotest.(check bool) "corner is pad" true
    (Powergrid.Grid.nearest_node g (P.make (-1.0) (-1.0)) = None);
  (* a generic interior point resolves *)
  Alcotest.(check bool) "interior resolves" true
    (Powergrid.Grid.nearest_node g (P.make 0.31 (-0.42)) <> None)

let test_grid_solve_length_mismatch () =
  let g = Powergrid.Grid.create ~nodes_per_side:6 die in
  Alcotest.(check bool) "raises" true
    (match Powergrid.Grid.solve g ~currents:[| 1.0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_grid_solvers_agree () =
  let dense = Powergrid.Grid.create ~nodes_per_side:9 ~solver:Powergrid.Grid.Dense die in
  let cg = Powergrid.Grid.create ~nodes_per_side:9 ~solver:Powergrid.Grid.Cg die in
  let n = Powergrid.Grid.node_count dense in
  let currents = Array.init n (fun i -> 1e-6 *. float_of_int ((i mod 4) + 1)) in
  let v1 = Powergrid.Grid.solve dense ~currents in
  let v2 = Powergrid.Grid.solve cg ~currents in
  Array.iteri
    (fun i v -> check_close ~tol:1e-8 "same drop" v1.(i) v)
    v2

(* ---------- Leakage ---------- *)

let test_leakage_nominal () =
  let m = Powergrid.Leakage.default in
  check_close ~tol:1e-18 "nominal" m.Powergrid.Leakage.i0
    (Powergrid.Leakage.current m ~params:(Array.make 4 0.0))

let test_leakage_vt_dominates_negatively () =
  let m = Powergrid.Leakage.default in
  let high_vt = Powergrid.Leakage.current m ~params:[| 0.0; 0.0; 2.0; 0.0 |] in
  let low_vt = Powergrid.Leakage.current m ~params:[| 0.0; 0.0; -2.0; 0.0 |] in
  Alcotest.(check bool) "low vt leaks much more" true (low_vt > 10.0 *. high_vt)

let test_leakage_lognormal_mean () =
  (* sampled mean converges to the analytic lognormal mean *)
  let m = Powergrid.Leakage.default in
  let rng = Prng.Rng.create ~seed:7 in
  let acc = Stats.Welford.create () in
  for _ = 1 to 200_000 do
    let params = Prng.Gaussian.vector rng 4 in
    Stats.Welford.add acc (Powergrid.Leakage.current m ~params)
  done;
  let expected = Powergrid.Leakage.mean_current m in
  let got = Stats.Welford.mean acc in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3e vs analytic %.3e" got expected)
    true
    (Float.abs (got -. expected) /. expected < 0.03)

let test_leakage_blocks_row () =
  let m = Powergrid.Leakage.default in
  let blocks =
    Array.init 4 (fun k -> Linalg.Mat.init 2 3 (fun s g -> float_of_int ((s + k + g) mod 2)))
  in
  let row = Powergrid.Leakage.currents_of_blocks m ~blocks ~sample:1 in
  Alcotest.(check int) "gate count" 3 (Array.length row);
  (* spot check gate 0 of sample 1 against the scalar model *)
  let params = Array.init 4 (fun k -> Linalg.Mat.get blocks.(k) 1 0) in
  check_close ~tol:1e-18 "matches scalar" (Powergrid.Leakage.current m ~params) row.(0)

(* ---------- Analysis ---------- *)

let analysis_fixture =
  lazy
    (let netlist =
       Circuit.Generator.generate
         { Circuit.Generator.name = "pg"; n_gates = 150; n_inputs = 10;
           n_outputs = 5; dff_fraction = 0.0; seed = 3 }
     in
     let setup = Ssta.Experiment.setup_circuit netlist in
     let proc = Ssta.Process.paper_default () in
     (setup, proc, Powergrid.Grid.create ~nodes_per_side:10 die))

let test_analysis_deterministic () =
  let setup, proc, grid = Lazy.force analysis_fixture in
  let a1 = Ssta.Algorithm1.prepare proc setup.Ssta.Experiment.locations in
  let run () =
    Powergrid.Analysis.run ~grid ~leakage:Powergrid.Leakage.default
      ~gate_locations:setup.Ssta.Experiment.locations
      ~sampler:(Ssta.Algorithm1.sample_block a1) ~seed:5 ~n:100 ()
  in
  let r1 = run () and r2 = run () in
  check_close ~tol:0.0 "mean" r1.Powergrid.Analysis.max_drop_mean
    r2.Powergrid.Analysis.max_drop_mean

let test_analysis_algorithms_agree () =
  let setup, proc, grid = Lazy.force analysis_fixture in
  let a1 = Ssta.Algorithm1.prepare proc setup.Ssta.Experiment.locations in
  let a2 =
    Ssta.Algorithm2.prepare
      ~config:
        { Ssta.Algorithm2.max_area_fraction = 0.004; min_angle_deg = 28.0;
          computed_pairs = 80; r = Some 25 }
      proc setup.Ssta.Experiment.locations
  in
  let run sampler seed =
    Powergrid.Analysis.run ~grid ~leakage:Powergrid.Leakage.default
      ~gate_locations:setup.Ssta.Experiment.locations ~sampler ~seed ~n:2000 ()
  in
  let r1 = run (Ssta.Algorithm1.sample_block a1) 11 in
  let r2 = run (Ssta.Algorithm2.sample_block a2) 12 in
  let rel a b = Float.abs (a -. b) /. b in
  Alcotest.(check bool)
    (Printf.sprintf "mean agree (%.2e vs %.2e)" r2.Powergrid.Analysis.max_drop_mean
       r1.Powergrid.Analysis.max_drop_mean)
    true
    (rel r2.Powergrid.Analysis.max_drop_mean r1.Powergrid.Analysis.max_drop_mean < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "sigma agree (%.2e vs %.2e)" r2.Powergrid.Analysis.max_drop_sigma
       r1.Powergrid.Analysis.max_drop_sigma)
    true
    (rel r2.Powergrid.Analysis.max_drop_sigma r1.Powergrid.Analysis.max_drop_sigma < 0.25)

let test_analysis_p99_exceeds_mean () =
  let setup, proc, grid = Lazy.force analysis_fixture in
  let a1 = Ssta.Algorithm1.prepare proc setup.Ssta.Experiment.locations in
  let r =
    Powergrid.Analysis.run ~grid ~leakage:Powergrid.Leakage.default
      ~gate_locations:setup.Ssta.Experiment.locations
      ~sampler:(Ssta.Algorithm1.sample_block a1) ~seed:5 ~n:500 ()
  in
  Alcotest.(check bool) "p99 > mean" true
    (r.Powergrid.Analysis.max_drop_p99 > r.Powergrid.Analysis.max_drop_mean);
  Alcotest.(check bool) "positive" true (r.Powergrid.Analysis.max_drop_mean > 0.0)

let () =
  Alcotest.run "powergrid"
    [
      ( "grid",
        [
          Alcotest.test_case "node counts" `Quick test_grid_counts;
          Alcotest.test_case "tiny grid hand-computed" `Quick test_grid_tiny_hand_computed;
          Alcotest.test_case "superposition" `Quick test_grid_superposition;
          Alcotest.test_case "drops positive and scale" `Quick test_grid_drop_positive_and_monotone;
          Alcotest.test_case "hot spot away from pads" `Quick test_grid_center_drop_largest_under_uniform_load;
          Alcotest.test_case "nearest node" `Quick test_grid_nearest_node;
          Alcotest.test_case "length mismatch" `Quick test_grid_solve_length_mismatch;
          Alcotest.test_case "dense and CG backends agree" `Quick test_grid_solvers_agree;
        ] );
      ( "leakage",
        [
          Alcotest.test_case "nominal" `Quick test_leakage_nominal;
          Alcotest.test_case "Vt dominates negatively" `Quick test_leakage_vt_dominates_negatively;
          Alcotest.test_case "lognormal mean" `Quick test_leakage_lognormal_mean;
          Alcotest.test_case "block row extraction" `Quick test_leakage_blocks_row;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "deterministic" `Quick test_analysis_deterministic;
          Alcotest.test_case "algorithms agree" `Slow test_analysis_algorithms_agree;
          Alcotest.test_case "p99 exceeds mean" `Quick test_analysis_p99_exceeds_mean;
        ] );
    ]
