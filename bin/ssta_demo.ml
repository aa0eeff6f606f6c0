(* Command-line SSTA driver: run Monte Carlo statistical timing on a
   benchmark circuit with a choice of correlation sampler.

   Examples:
     ssta_demo --circuit c1908 --samples 2000
     ssta_demo --circuit c3540 --sampler grid --grid 8 -r 25
     ssta_demo --bench-file my_netlist.bench --sampler kle
     ssta_demo --sampler kle --compare               # vs. Algorithm 1
     ssta_demo --fault sampler-nan --on-nonfinite skip
     ssta_demo --strict                              # degraded run = failure *)

open Cmdliner

let run circuit_name bench_file samples sampler_kind grid r seed jobs
    strict fault policy do_compare trace_file metrics verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  if trace_file <> None || metrics then begin
    Util.Trace.enable ();
    (* at_exit so the trace/summary survive the early `exit 1` paths
       (typed failures, strict mode); the exporter flushes spans still
       open on this domain *)
    at_exit (fun () ->
        (match trace_file with
        | Some path ->
            Util.Trace.write_chrome_trace path;
            Printf.printf
              "wrote Chrome trace to %s (load in chrome://tracing or Perfetto)\n"
              path
        | None -> ());
        if metrics then print_string (Util.Trace.summary ()))
  end;
  Util.Trace.with_span ~attrs:[ ("circuit", circuit_name) ] "ssta_demo"
  @@ fun () ->
  let netlist =
    match bench_file with
    | Some path -> (
        match Circuit.Bench_format.parse_file path with
        | Ok n -> n
        | Error e ->
            Printf.eprintf "error parsing %s: %s\n" path e;
            exit 1)
    | None -> (
        match Circuit.Generator.paper_spec circuit_name with
        | spec -> Circuit.Generator.generate spec
        | exception Not_found ->
            Printf.eprintf "unknown circuit %S; known: %s\n" circuit_name
              (String.concat ", " (List.map fst Circuit.Generator.paper_suite));
            exit 1)
  in
  let diag = Util.Diag.create () in
  let print_diag () =
    let events = Util.Diag.events diag in
    let shown =
      if verbose then events
      else
        List.filter
          (fun e -> Util.Diag.severity_rank e.Util.Diag.severity >= 1)
          events
    in
    if shown <> [] then begin
      Printf.printf "\ndiagnostics (%d of %d events):\n" (List.length shown)
        (List.length events);
      List.iter (fun e -> Format.printf "  %a@." Util.Diag.pp_event e) shown
    end
  in
  (* every check on the path raises Util.Diag.Failure: one handler *)
  (try
     let setup = Ssta.Experiment.setup_circuit netlist in
     Printf.printf "%s: %d logic gates, %d endpoints\n" netlist.Circuit.Netlist.name
       (Circuit.Netlist.logic_gate_count netlist)
       (Array.length setup.Ssta.Experiment.sta.Sta.Timing.endpoints);
     let nominal = Sta.Timing.run_nominal setup.Ssta.Experiment.sta in
     Printf.printf "nominal worst delay: %.1f ps\n" nominal.Sta.Timing.worst_delay;
     let slack = Sta.Timing.slack_report setup.Ssta.Experiment.sta in
     Printf.printf "nominal critical path: %d stages (%s -> %s)\n"
       (Array.length slack.Sta.Timing.critical_path)
       netlist.Circuit.Netlist.gates.(slack.Sta.Timing.critical_path.(0)).Circuit.Netlist.name
       netlist.Circuit.Netlist.gates.(
         slack.Sta.Timing.critical_path.(Array.length slack.Sta.Timing.critical_path - 1)).Circuit.Netlist.name;
     (* validate the pristine process first, then (optionally) decorate its
        kernels with the fault plan so the injected NaN hits the numeric
        stages — assembly / factorization — rather than the spot check *)
     let process = Ssta.Process.paper_default () in
     Ssta.Process.validate process;
     let process =
       match fault with
       | `Kernel_nan ->
           Printf.printf "fault injection: NaN at the first kernel evaluation\n";
           let parameters =
             Array.map
               (fun (p : Ssta.Process.parameter) ->
                 { p with kernel = Ssta.Fault_inject.kernel (Util.Fault.plan Util.Fault.Nan) p.kernel })
               process.Ssta.Process.parameters
           in
           { Ssta.Process.parameters }
       | _ -> process
     in
     let prepare_cholesky () =
       let a1 = Ssta.Algorithm1.prepare ~diag ?jobs process setup.Ssta.Experiment.locations in
       Printf.printf "Algorithm 1 setup: %.2fs\n" (Ssta.Algorithm1.setup_seconds a1);
       a1
     in
     let sampler, setup_seconds, label, kle_models =
       match sampler_kind with
       | `Cholesky ->
           let a1 = prepare_cholesky () in
           ( Ssta.Algorithm1.sample_block a1,
             Ssta.Algorithm1.setup_seconds a1,
             "cholesky (Algorithm 1)",
             None )
       | (`Kle | `Kle_qmc) as kind ->
           let config =
             { Ssta.Algorithm2.paper_config with r = (if r > 0 then Some r else None) }
           in
           let a2 =
             Ssta.Algorithm2.prepare ~config ~diag ?jobs process setup.Ssta.Experiment.locations
           in
           Printf.printf "Algorithm 2 setup: %.2fs (mesh n = %d, r = %d)\n"
             (Ssta.Algorithm2.setup_seconds a2)
             (Ssta.Algorithm2.mesh_size a2) (Ssta.Algorithm2.r a2);
           let sampler, label =
             match kind with
             | `Kle -> (Ssta.Algorithm2.sample_block a2, "covariance-kernel KLE (Algorithm 2)")
             | `Kle_qmc ->
                 ( Ssta.Algorithm2.qmc_sampler a2 ~seed,
                   "covariance-kernel KLE + randomized-Halton QMC" )
           in
           (sampler, Ssta.Algorithm2.setup_seconds a2, label, Some (Ssta.Algorithm2.models a2))
       | `Grid ->
           let g =
             Ssta.Grid_pca.prepare ~grid
               ?r:(if r > 0 then Some r else None)
               process setup.Ssta.Experiment.locations
           in
           Printf.printf "grid+PCA setup: %dx%d grid, r = %d, %.1f%% variance\n" grid grid
             (Ssta.Grid_pca.r g)
             (100.0 *. Ssta.Grid_pca.explained_variance_fraction g);
           (Ssta.Grid_pca.sample_block g, 0.0, "grid + PCA baseline", None)
     in
     let sampler =
       match fault with
       | `Sampler_nan ->
           Printf.printf "fault injection: NaN in the first sampler batch\n";
           let faulty, _fired =
             Ssta.Fault_inject.sampler ~kind:Util.Fault.Nan ~diag ~seed sampler
           in
           faulty
       | _ -> sampler
     in
     let run_mc sampler =
       Ssta.Experiment.run_mc ?jobs ~policy ~diag setup ~sampler ~seed ~n:samples
     in
     let mc = run_mc sampler in
     Printf.printf "\n%s, %d samples:\n" label samples;
     if mc.Ssta.Experiment.n_skipped > 0 then
       Printf.printf "  skipped %d samples with non-finite parameters\n"
         mc.Ssta.Experiment.n_skipped;
     Printf.printf "  worst delay: mu = %.1f ps, sigma = %.2f ps\n"
       mc.Ssta.Experiment.worst_mean mc.Ssta.Experiment.worst_sigma;
     Printf.printf "  3-sigma corner: %.1f ps\n"
       (mc.Ssta.Experiment.worst_mean +. (3.0 *. mc.Ssta.Experiment.worst_sigma));
     Printf.printf "  time: %.2fs sampling + %.2fs STA\n" mc.Ssta.Experiment.sample_seconds
       mc.Ssta.Experiment.sta_seconds;
     (if do_compare then
        match sampler_kind with
        | `Cholesky ->
            Printf.printf "\n--compare: the candidate already is the reference sampler\n"
        | `Kle | `Kle_qmc | `Grid ->
            let a1 = prepare_cholesky () in
            let reference = run_mc (Ssta.Algorithm1.sample_block a1) in
            let cmp =
              Ssta.Experiment.compare ~reference
                ~reference_setup_seconds:(Ssta.Algorithm1.setup_seconds a1)
                ~candidate:mc ~candidate_setup_seconds:setup_seconds
            in
            Printf.printf "\nvs. cholesky reference (%d samples):\n"
              reference.Ssta.Experiment.n_samples;
            Printf.printf "  e_mu = %.3f%%, e_sigma = %.2f%%\n" cmp.Ssta.Experiment.e_mu_pct
              cmp.Ssta.Experiment.e_sigma_pct;
            (let v = cmp.Ssta.Experiment.sigma_err_avg_outputs_pct in
             let excl = cmp.Ssta.Experiment.excluded_endpoints in
             if Float.is_nan v then
               Printf.printf "  per-endpoint sigma error: n/a (%d endpoints excluded)\n" excl
             else if excl > 0 then
               Printf.printf "  per-endpoint sigma error: %.2f%% avg (%d endpoints excluded)\n"
                 v excl
             else Printf.printf "  per-endpoint sigma error: %.2f%% avg\n" v);
            Printf.printf "  speedup: %.1fx\n" cmp.Ssta.Experiment.speedup);
     (* with the KLE sampler we can also run the single-pass block engine *)
     (match kle_models with
     | Some models ->
         let blk = Ssta.Block_ssta.run setup ~models in
         Printf.printf
           "\nblock-based SSTA (single pass, %.1f ms): mu = %.1f ps, sigma = %.2f ps\n"
           (1000.0 *. blk.Ssta.Block_ssta.analysis_seconds)
           (Ssta.Block_ssta.mean blk) (Ssta.Block_ssta.sigma blk);
         let crit = Ssta.Block_ssta.criticalities ~samples:5000 ~seed blk in
         let order = Array.init (Array.length crit) (fun i -> i) in
         Array.sort (fun a b -> Float.compare crit.(b) crit.(a)) order;
         Printf.printf "most critical endpoints (gate: probability):\n";
         Array.iteri
           (fun rank e ->
             if rank < 3 && crit.(e) > 0.005 then
               Printf.printf "  %s: %.1f%%\n"
                 netlist.Circuit.Netlist.gates.(
                   setup.Ssta.Experiment.sta.Sta.Timing.endpoints.(e)).Circuit.Netlist.name
                 (100.0 *. crit.(e)))
           order
     | None -> ())
   with Util.Diag.Failure e ->
     Printf.eprintf "error: %s\n" (Util.Diag.to_string e);
     print_diag ();
     exit 1);
  print_diag ();
  if strict && Util.Diag.count ~min_severity:Util.Diag.Warning diag > 0 then begin
    Printf.eprintf "strict mode: the run degraded; offending events:\n";
    List.iter
      (fun e ->
        if Util.Diag.severity_rank e.Util.Diag.severity >= 1 then
          Printf.eprintf "%s\n" (Util.Diag.to_json e))
      (Util.Diag.events diag);
    exit 1
  end

let circuit_arg =
  Arg.(value & opt string "c880" & info [ "c"; "circuit" ] ~doc:"Paper benchmark circuit name.")

let bench_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "bench-file" ] ~doc:"Read an ISCAS .bench netlist instead of generating one.")

let samples_arg =
  Arg.(value & opt int 1000 & info [ "n"; "samples" ] ~doc:"Monte Carlo samples.")

let sampler_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("cholesky", `Cholesky); ("kle", `Kle); ("kle-qmc", `Kle_qmc); ("grid", `Grid) ])
        `Kle
    & info [ "sampler" ]
        ~doc:
          "Correlation sampler: cholesky, kle, kle-qmc (randomized-Halton quasi-Monte Carlo \
           in the reduced KLE space) or grid.")

let grid_arg =
  Arg.(value & opt int 8 & info [ "grid" ] ~doc:"Grid resolution for the grid sampler.")

let r_arg =
  Arg.(value & opt int 0 & info [ "r" ] ~doc:"Retained components (0 = automatic).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ]
        ~doc:
          "Worker domains for covariance assembly and Monte Carlo timing (1 = \
           sequential; default: available cores). Results do not depend on it.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Treat degraded numerics (jittered/repaired factorizations, solver \
           fallbacks, skipped samples) as errors: a run that degraded exits \
           non-zero at its end.")

let fault_arg =
  Arg.(
    value
    & opt
        (enum [ ("none", `None); ("kernel-nan", `Kernel_nan); ("sampler-nan", `Sampler_nan) ])
        `None
    & info [ "fault" ]
        ~doc:
          "Deterministic fault injection (for exercising the guards): corrupt the \
           first kernel evaluation or the first sampler batch with a NaN.")

let policy_arg =
  Arg.(
    value
    & opt (enum [ ("fail", Ssta.Experiment.Fail); ("skip", Ssta.Experiment.Skip) ])
        Ssta.Experiment.Fail
    & info [ "on-nonfinite" ]
        ~doc:
          "Monte Carlo policy for non-finite parameter samples: fail with a typed \
           diagnostic, or skip (and count) the offending samples.")

let compare_arg =
  Arg.(
    value & flag
    & info [ "compare" ]
        ~doc:
          "Also run the Algorithm 1 (cholesky) reference with the same seed and \
           print the paper's comparison metrics.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ]
        ~doc:
          "Write a Chrome trace_event JSON file of the run (hierarchical \
           spans, one track per worker domain; load in chrome://tracing or \
           Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the span-tree timing summary and work counters (kernel \
           evaluations, matvecs, Monte Carlo samples, …) after the run.")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let cmd =
  let doc = "Monte Carlo statistical static timing with spatial correlation" in
  Cmd.v
    (Cmd.info "ssta_demo" ~doc)
    Term.(
      const run $ circuit_arg $ bench_file_arg $ samples_arg $ sampler_arg $ grid_arg
      $ r_arg $ seed_arg $ jobs_arg $ strict_arg $ fault_arg
      $ policy_arg $ compare_arg $ trace_arg $ metrics_arg $ verbose_arg)

let () = exit (Cmd.eval cmd)
