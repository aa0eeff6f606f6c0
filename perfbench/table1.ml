(* table1: the paper's own flow, offline, one caller.

   Setup builds the paper mesh, solves the Galerkin eigenproblem for 200
   pairs in the default mode at the library's default [jobs] (its matvecs
   fan out over the [Util.Pool]), truncates (r = 25) and places the four
   Table 1 circuits that fit a run. One op is Algorithm 2 over the whole
   four-circuit sweep: per circuit, [Kle.Sampler.create] plus
   [Ssta.Experiment.run_mc], with a fresh seed, on the caller's domain
   alone ([jobs] 1; see [op_jobs]). One op spans all four gate counts, so
   the latency distribution has a single mode. *)

open Common

let samples settings = if settings.short then 64 else 500

(* The ops run [run_mc] at [jobs] 1. On a 2-vCPU box a batch fanned out
   over two domains waits for the slower one: one competing busy thread
   made a [jobs] 2 op 2.8x slower but a [jobs] 1 op only 1.17x, so the
   machine's load, not the program, set the [jobs] 2 timings. *)
let op_jobs = 1

(* The four circuits, each with the sample count of its Algorithm 1
   reference. The checks compare the KLE estimate pooled over every op
   (ops x 500 samples) with one reference run, so the reference's own Monte
   Carlo noise sets the bound's width. A reference sample costs O(gates^2)
   and streams the circuit's Cholesky factor (22 MB on c3540) through
   memory, so the small circuits get most of the ~10 s budget: c880's
   bounds are the tightest, and a biased model, sampler or timer shows on
   every circuit alike. *)
let circuits = [ ("c880", 6000); ("c1355", 3000); ("c1908", 800); ("c3540", 250) ]

let reference_samples settings name = if settings.short then 256 else List.assoc name circuits

type prepared = {
  model : Kle.Model.t;
  circuits : (string * Ssta.Experiment.circuit_setup) array;
}

(* time inside one op's layers, summed over the four circuits *)
type op_layers = { create_s : float; sample_s : float; run_mc_s : float }

let op settings p ~seed =
  let create_s = ref 0.0 and sample_s = ref 0.0 and run_mc_s = ref 0.0 in
  let results =
    Array.map
      (fun (name, (setup : Ssta.Experiment.circuit_setup)) ->
        Util.Trace.with_span ~attrs:[ ("circuit", name) ] "bench.circuit" @@ fun () ->
        let sampler, dt =
          time (fun () ->
              Util.Trace.with_span "kle.sampler_create" (fun () ->
                  Kle.Sampler.create p.model setup.Ssta.Experiment.locations))
        in
        create_s := !create_s +. dt;
        let sample rng ~n =
          let blocks, dt =
            time (fun () ->
                Util.Trace.with_span "kle.sample" (fun () ->
                    Array.init 4 (fun _ -> Kle.Sampler.sample_matrix sampler rng ~n)))
          in
          sample_s := !sample_s +. dt;
          blocks
        in
        let mc, dt =
          time (fun () ->
              Util.Trace.with_span "ssta.run_mc" (fun () ->
                  Ssta.Experiment.run_mc ~jobs:op_jobs setup ~sampler:sample ~seed
                    ~n:(samples settings)))
        in
        run_mc_s := !run_mc_s +. dt;
        mc)
      p.circuits
  in
  (results, { create_s = !create_s; sample_s = !sample_s; run_mc_s = !run_mc_s })

(* ops [first, first + settings.ops), timed one by one *)
let pass settings p ~first =
  let results = Array.make settings.ops [||] and layers = Array.make settings.ops None in
  let op_ms = Array.make settings.ops nan in
  let (), wall_s =
    time (fun () ->
        for i = 0 to settings.ops - 1 do
          let k = first + i in
          let seed = op_seed settings k in
          let (r, l), dt =
            time (fun () ->
                Util.Trace.with_span
                  ~attrs:[ ("op", string_of_int k); ("seed", string_of_int seed) ]
                  "bench.op"
                  (fun () -> op settings p ~seed))
          in
          results.(i) <- r;
          layers.(i) <- Some l;
          op_ms.(i) <- ms dt
        done)
  in
  ({ op_ms; wall_s; failed = 0; peak_rss_mb = peak_rss_mb () }, results, Array.map Option.get layers)

(* the per-op layer metrics of a traced pass *)
let op_metrics settings ls ~c0 ~c1 ~g0 ~g1 =
  let per_op name =
    float_of_int (counter_delta c0 name ~now:c1) /. float_of_int settings.ops
  in
  let med f = median (Array.map f ls) in
  [
    metric "kle.sampler_create_ms" "ms" (med (fun l -> ms l.create_s));
    metric "kle.sample_ms" "ms" (med (fun l -> ms l.sample_s));
    metric "sta.propagate_ms" "ms" (med (fun l -> ms (l.run_mc_s -. l.sample_s)));
    metric "ssta.mc_samples" "count" (per_op "mc_samples");
  ]
  @ gc_metrics ~prefix:"gc.op" ~per:settings.ops g0 g1

(* ---------------------------------------------------------------- *)
(* accuracy against Algorithm 1 *)

(* The paper's Table 1 maxima, which [bench table1] prints beside its
   results (e_mu < 0.11 %, e_sigma < 5.7 %), plus z = 5 standard errors of
   the Monte Carlo noise of the two estimates (n candidate and m reference
   samples): [bench table1]'s sigma noise floor 100/sqrt(2n) per estimate,
   and sigma/mu/sqrt(n) on the mean. At five standard errors a correct
   program fails one comparison with probability ~6e-7. *)
let alg1_bounds ~n ~(reference : Ssta.Experiment.mc_result) =
  let m = float_of_int reference.Ssta.Experiment.n_samples and n = float_of_int n in
  let z = 5.0 in
  let cv = reference.Ssta.Experiment.worst_sigma /. reference.Ssta.Experiment.worst_mean in
  let mu = 0.11 +. (z *. 100.0 *. cv *. sqrt ((1.0 /. n) +. (1.0 /. m))) in
  let sigma = 5.7 +. (z *. 100.0 *. sqrt ((0.5 /. n) +. (0.5 /. m))) in
  (mu, sigma)

(* true when an [n]-sample (mean, sigma) agrees with Algorithm 1; a
   failure is printed, and with [verbose] a pass too *)
let within_alg1 ?(verbose = false) ~label ~n ~reference ~mean ~sigma () =
  let mu_bound, sigma_bound = alg1_bounds ~n ~reference in
  let e_mu = pct_err ~reference:reference.Ssta.Experiment.worst_mean mean in
  let e_sigma = pct_err ~reference:reference.Ssta.Experiment.worst_sigma sigma in
  let ok = Float.is_finite mean && Float.is_finite sigma && e_mu <= mu_bound && e_sigma <= sigma_bound in
  if not ok then
    pf "# CHECK FAILED %s: e_mu %.3f%% (bound %.3f%%), e_sigma %.3f%% (bound %.3f%%)\n%!"
      label e_mu mu_bound e_sigma sigma_bound
  else if verbose then
    pf "# meta %s n=%d e_mu=%.4f%% (bound %.3f%%) e_sigma=%.4f%% (bound %.3f%%)\n" label n e_mu
      mu_bound e_sigma sigma_bound;
  ok

(* (samples, mean, sigma) of the union of the ops' worst-delay samples *)
let pooled (ops : Ssta.Experiment.mc_result array) =
  let n = Array.fold_left (fun n (r : Ssta.Experiment.mc_result) -> n + r.Ssta.Experiment.n_samples) 0 ops in
  let w r = float_of_int r.Ssta.Experiment.n_samples in
  let mean =
    Array.fold_left (fun s r -> s +. (w r *. r.Ssta.Experiment.worst_mean)) 0.0 ops /. float_of_int n
  in
  let ss =
    Array.fold_left
      (fun s r ->
        let d = r.Ssta.Experiment.worst_mean -. mean in
        s +. ((w r -. 1.0) *. r.Ssta.Experiment.worst_sigma *. r.Ssta.Experiment.worst_sigma)
        +. (w r *. d *. d))
      0.0 ops
  in
  (n, mean, sqrt (ss /. float_of_int (n - 1)))

let alg1_reference ~samples ~seed (setup : Ssta.Experiment.circuit_setup) =
  let a1, prepare_s =
    time (fun () ->
        Ssta.Algorithm1.prepare (Ssta.Process.paper_default ()) setup.Ssta.Experiment.locations)
  in
  let mc, mc_s =
    time (fun () ->
        Ssta.Experiment.run_mc setup
          ~sampler:(fun rng ~n -> Ssta.Algorithm1.sample_block a1 rng ~n)
          ~seed ~n:samples)
  in
  (mc, prepare_s, mc_s)

let run settings =
  let c0 = Util.Trace.counters () and g0 = gc_now () in
  let (p, mesh_s, solve_s, circuit_s), setup_s =
    time (fun () ->
        Util.Trace.with_span "bench.setup" @@ fun () ->
        let model, mesh_s, solve_s = build_model settings in
        let circuits, circuit_s =
          time (fun () -> Array.of_list (List.map (fun (n, _) -> (n, setup_circuit n)) circuits))
        in
        ({ model; circuits }, mesh_s, solve_s, circuit_s))
  in
  let c_setup = Util.Trace.counters () and g_setup = gc_now () in
  let setup_count name = float_of_int (counter_delta c0 name ~now:c_setup) in
  (* warm-up op outside the timed phase, on a seed no timed op uses *)
  ignore (op settings p ~seed:(op_seed settings (-1)));
  Util.Trace.disable ();
  let timed, timed_results, _ = pass settings p ~first:0 in
  let traced =
    if not settings.trace then None
    else begin
      Util.Trace.enable ();
      let c0 = Util.Trace.counters () and g0 = gc_now () in
      let traced, results, ls = pass settings p ~first:settings.ops in
      let c1 = Util.Trace.counters () and g1 = gc_now () in
      Some (traced, results, op_metrics settings ls ~c0 ~c1 ~g0 ~g1)
    end
  in
  (* checks: r, and every op of every pass, one by one and pooled per
     circuit, against one Algorithm 1 run per circuit *)
  let all_results =
    Array.append timed_results (match traced with Some (_, r, _) -> r | None -> [||])
  in
  let n_ops = Array.length all_results in
  let failed_ops = Array.make n_ops (not (r_ok settings p.model)) in
  if not (r_ok settings p.model) then pf "# CHECK FAILED r = %d\n" p.model.Kle.Model.r;
  let refs =
    Array.to_list p.circuits
    |> List.mapi (fun ci (name, setup) ->
           let m = reference_samples settings name in
           let reference, prepare_s, mc_s = alg1_reference ~samples:m ~seed:(settings.seed + 7) setup in
           let ops = Array.map (fun (r : Ssta.Experiment.mc_result array) -> r.(ci)) all_results in
           Array.iteri
             (fun k (mc : Ssta.Experiment.mc_result) ->
               if
                 not
                   (within_alg1 ~label:(Printf.sprintf "op %d %s" k name) ~reference
                      ~n:mc.Ssta.Experiment.n_samples ~mean:mc.Ssta.Experiment.worst_mean
                      ~sigma:mc.Ssta.Experiment.worst_sigma ())
               then failed_ops.(k) <- true)
             ops;
           let n, mean, sigma = pooled ops in
           if not (within_alg1 ~verbose:true ~label:("pooled " ^ name) ~reference ~n ~mean ~sigma ()) then
             Array.fill failed_ops 0 n_ops true;
           let kle_s =
             median
               (Array.map
                  (fun (r : Ssta.Experiment.mc_result array) ->
                    r.(ci).Ssta.Experiment.sample_seconds +. r.(ci).Ssta.Experiment.sta_seconds)
                  timed_results)
           in
           (* the paper's speedup: Algorithm 1 at the ops' sample count *)
           let a1_s = prepare_s +. (mc_s *. float_of_int (samples settings) /. float_of_int m) in
           [
             ("ssta.alg1_prepare_s." ^ name, prepare_s);
             ("ssta.alg1_mc_s." ^ name, mc_s);
             ("ssta.speedup." ^ name, a1_s /. kle_s);
           ])
    |> List.concat
  in
  let layers =
    match traced with
    | None -> []
    | Some (_, _, op_layers) ->
        [
          metric "geometry.mesh_s" "s" mesh_s;
          metric "kle.solve_s" "s" solve_s;
          metric "kle.kernel_evals" "count" (setup_count "kernel_evals");
          metric "kle.matvecs" "count" (setup_count "matvecs");
          metric "kle.lanczos_iterations" "count" (setup_count "lanczos_iterations");
          metric "util.pool_wait_ms" "ms" (setup_count "pool_wait_ns" /. 1e6);
          metric "util.pool_run_ms" "ms" (setup_count "pool_run_ns" /. 1e6);
          metric "circuit.setup_ms" "ms" (ms circuit_s);
          metric "kle.r" "count" (float_of_int p.model.Kle.Model.r);
        ]
        @ gc_metrics ~prefix:"gc.setup" g0 g_setup
        @ op_layers
  in
  {
    setup_s;
    timed;
    traced = Option.map (fun (t, _, _) -> t) traced;
    check_failures = Array.fold_left (fun n f -> if f then n + 1 else n) 0 failed_ops;
    layers;
    refs;
  }
