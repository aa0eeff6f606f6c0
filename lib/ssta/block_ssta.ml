module Netlist = Circuit.Netlist
module Gate = Circuit.Gate

type t = {
  basis_dim : int;
  worst : Canonical.t;
  endpoint_forms : Canonical.t array;
  analysis_seconds : float;
}

let zeros4 = Array.make Gate.num_parameters 0.0

(* Everything the canonical-form propagation needs that is a pure function
   of (circuit setup, KLE models): per-parameter expansion rows, the basis
   layout, and the nominal corner. *)
type ctx = {
  expansions : Linalg.Mat.t array; (* per parameter: N_g x r_k rows *)
  rs : int array;
  offsets : int array; (* column offset of parameter k in the basis *)
  basis_dim : int;
  logic_row : int array; (* per gate id; -1 for Input pseudo gates *)
  nominal_arrival : float array;
  nominal_slew : float array;
}

let build_ctx (setup : Experiment.circuit_setup) ~models =
  if Array.length models <> Gate.num_parameters then
    invalid_arg "Block_ssta.run: need one KLE model per statistical parameter";
  let prepared = setup.Experiment.sta in
  let n_gates = Netlist.size setup.Experiment.netlist in
  let samplers =
    Array.map (fun m -> Kle.Sampler.create m setup.Experiment.locations) models
  in
  let expansions = Array.map Kle.Sampler.expansion samplers in
  let rs = Array.map Linalg.Mat.cols expansions in
  let offsets = Array.make Gate.num_parameters 0 in
  for k = 1 to Gate.num_parameters - 1 do
    offsets.(k) <- offsets.(k - 1) + rs.(k - 1)
  done;
  let basis_dim = offsets.(Gate.num_parameters - 1) + rs.(Gate.num_parameters - 1) in
  let logic_row = Array.make n_gates (-1) in
  Array.iteri (fun row id -> logic_row.(id) <- row) setup.Experiment.logic_ids;
  let nominal_arrival, nominal_slew = Sta.Timing.nominal_arrival_and_slew prepared in
  { expansions; rs; offsets; basis_dim; logic_row; nominal_arrival; nominal_slew }

(* canonical form of the statistical part of a gate quantity with linear
   parameter sensitivities [betas] (per unit sigma at this gate's
   location), plus — when [quad] is given — the rank-one quadratic's mean
   shift gamma * s² and its Var = 2 gamma² s⁴ as an independent term *)
let statistical_part ctx g ~betas ~quad =
  let sens = Array.make ctx.basis_dim 0.0 in
  let row = ctx.logic_row.(g) in
  let s2 = ref 0.0 in
  if row >= 0 then
    for k = 0 to Gate.num_parameters - 1 do
      let b = ctx.expansions.(k) in
      let var_k = ref 0.0 in
      for j = 0 to ctx.rs.(k) - 1 do
        let bij = Linalg.Mat.unsafe_get b row j in
        sens.(ctx.offsets.(k) + j) <- betas.(k) *. bij;
        var_k := !var_k +. (bij *. bij)
      done;
      match quad with
      | Some (_, w) -> s2 := !s2 +. (w.(k) *. w.(k) *. !var_k)
      | None -> ()
    done;
  match quad with
  | None -> Canonical.make ~mean:0.0 ~sens ~indep:0.0
  | Some (gamma, _) ->
      let quad_mean = gamma *. !s2 in
      let quad_indep = sqrt 2.0 *. Float.abs gamma *. !s2 in
      Canonical.make ~mean:quad_mean ~sens ~indep:quad_indep

let run (setup : Experiment.circuit_setup) ~models =
  Util.Trace.with_span "block_ssta.run" @@ fun () ->
  let timer = Util.Timer.start () in
  let ctx = build_ctx setup ~models in
  let prepared = setup.Experiment.sta in
  let netlist = setup.Experiment.netlist in
  let n_gates = Netlist.size netlist in
  let basis_dim = ctx.basis_dim in
  let nominal_arrival = ctx.nominal_arrival in
  let nominal_slew = ctx.nominal_slew in
  let statistical_part g ~betas ~quad = statistical_part ctx g ~betas ~quad in
  (* topological propagation of arrival AND slew forms: slew variation feeds
     back into delay through the gate's k_slew sensitivity, which matters for
     the sigma of long paths *)
  let forms = Array.make n_gates (Canonical.constant ~dim:basis_dim 0.0) in
  let slew_forms = Array.make n_gates (Canonical.constant ~dim:basis_dim 0.0) in
  Array.iter
    (fun g ->
      let gate = netlist.Netlist.gates.(g) in
      let c_load = prepared.Sta.Timing.c_loads.(g) in
      match gate.Netlist.kind with
      | Gate.Input ->
          let d =
            Gate.delay Gate.Input ~slew_in:Sta.Timing.default_input_slew_ps ~c_load
              ~params:zeros4
          in
          let s =
            Gate.output_slew Gate.Input ~slew_in:Sta.Timing.default_input_slew_ps
              ~c_load ~params:zeros4
          in
          forms.(g) <- Canonical.constant ~dim:basis_dim d;
          slew_forms.(g) <- Canonical.constant ~dim:basis_dim s
      | Gate.Dff ->
          let timing = Gate.timing Gate.Dff in
          let nominal = Gate.clk_to_q ~params:zeros4 in
          let stat =
            statistical_part g ~betas:timing.Gate.beta
              ~quad:(Some (timing.Gate.gamma, timing.Gate.w))
          in
          forms.(g) <- Canonical.add_constant stat nominal;
          let s_nom =
            Gate.output_slew Gate.Dff ~slew_in:Sta.Timing.default_input_slew_ps
              ~c_load ~params:zeros4
          in
          let s_stat = statistical_part g ~betas:timing.Gate.beta_slew ~quad:None in
          slew_forms.(g) <- Canonical.add_constant s_stat s_nom
      | kind ->
          (* merge input pins with Clark's max; wire delays deterministic *)
          let timing = Gate.timing kind in
          let best_nominal = ref neg_infinity in
          let best_slew_nom = ref Sta.Timing.default_input_slew_ps in
          let best_slew_form =
            ref (Canonical.constant ~dim:basis_dim Sta.Timing.default_input_slew_ps)
          in
          let pins =
            Array.to_list
              (Array.map
                 (fun f ->
                   let load = prepared.Sta.Timing.wireload.Circuit.Wireload.loads.(f) in
                   let wire_elmore =
                     load.Circuit.Wireload.r_wire
                     *. ((0.5 *. load.Circuit.Wireload.c_wire) +. timing.Gate.c_in)
                   in
                   (* track the nominal-latest pin: its slew linearizes the
                      gate delay (selection approximation) *)
                   let pin_nominal = nominal_arrival.(f) +. wire_elmore in
                   if pin_nominal > !best_nominal then begin
                     best_nominal := pin_nominal;
                     let s_drv = nominal_slew.(f) in
                     let s_pin =
                       Sta.Slew.sink_slew ~slew_driver:s_drv ~wire_elmore_ps:wire_elmore
                     in
                     best_slew_nom := s_pin;
                     (* PERI linearization: d s_pin / d s_drv = s_drv / s_pin *)
                     let gain = if s_pin > 1e-9 then s_drv /. s_pin else 1.0 in
                     best_slew_form :=
                       Canonical.add_constant
                         (Canonical.scale gain
                            (Canonical.add_constant slew_forms.(f) (-.s_drv)))
                         s_pin
                   end;
                   Canonical.add_constant forms.(f) wire_elmore)
                 gate.Netlist.fanins)
          in
          let merged = Canonical.max_many pins in
          let slew_in_nom = !best_slew_nom in
          let nominal_delay =
            Gate.delay kind ~slew_in:slew_in_nom ~c_load ~params:zeros4
          in
          (* delay = nominal + beta·p + quad + k_slew * (slew_in - nominal) *)
          let stat =
            statistical_part g ~betas:timing.Gate.beta
              ~quad:(Some (timing.Gate.gamma, timing.Gate.w))
          in
          let slew_dev =
            Canonical.add_constant !best_slew_form (-.slew_in_nom)
          in
          let delay_form =
            Canonical.add
              (Canonical.add_constant stat nominal_delay)
              (Canonical.scale timing.Gate.k_slew slew_dev)
          in
          forms.(g) <- Canonical.add merged delay_form;
          (* output slew form *)
          let s_nom =
            Gate.output_slew kind ~slew_in:slew_in_nom ~c_load ~params:zeros4
          in
          let s_stat = statistical_part g ~betas:timing.Gate.beta_slew ~quad:None in
          slew_forms.(g) <-
            Canonical.add
              (Canonical.add_constant s_stat s_nom)
              (Canonical.scale timing.Gate.k_slew_out slew_dev))
    prepared.Sta.Timing.order;
  let endpoint_forms =
    Array.map (fun e -> forms.(e)) prepared.Sta.Timing.endpoints
  in
  let worst = Canonical.max_many (Array.to_list endpoint_forms) in
  { basis_dim; worst; endpoint_forms; analysis_seconds = Util.Timer.elapsed_s timer }

let mean t = t.worst.Canonical.mean

let sigma t = Canonical.sigma t.worst

let quantile t p = Canonical.quantile t.worst p

(* Criticality sampling follows [Experiment.run_mc]'s determinism recipe:
   each fixed-size batch draws from its own counter-derived substream and
   per-batch tallies merge in batch order, so the result is a pure function
   of (t, samples, seed, batch) — bit-identical for every [jobs] value. *)
let criticality_batch = 256

let criticalities ?(samples = 20_000) ?(seed = 1) ?jobs t =
  if samples <= 0 then invalid_arg "Block_ssta.criticalities: samples must be positive";
  let n_end = Array.length t.endpoint_forms in
  let n_batches = (samples + criticality_batch - 1) / criticality_batch in
  let batch_counts = Array.make n_batches [||] in
  Util.Pool.with_jobs ?jobs (fun pool ->
      Util.Pool.parallel_for pool ~chunk:1 ~n:n_batches (fun lo hi ->
          for bi = lo to hi - 1 do
            let b = min criticality_batch (samples - (bi * criticality_batch)) in
            let rng = Prng.Rng.substream ~seed ~stream:bi in
            let counts = Array.make n_end 0 in
            for _ = 1 to b do
              let xi = Prng.Gaussian.vector rng t.basis_dim in
              let best = ref 0 and best_v = ref neg_infinity in
              Array.iteri
                (fun e f ->
                  let local = Prng.Gaussian.draw rng in
                  let v = Canonical.eval f ~xi ~local in
                  if v > !best_v then begin
                    best_v := v;
                    best := e
                  end)
                t.endpoint_forms;
              counts.(!best) <- counts.(!best) + 1
            done;
            batch_counts.(bi) <- counts
          done));
  let counts = Array.make n_end 0 in
  Array.iter (Array.iteri (fun e c -> counts.(e) <- counts.(e) + c)) batch_counts;
  Util.Trace.add Util.Trace.mc_samples samples;
  Array.map (fun c -> float_of_int c /. float_of_int samples) counts

let validate_against_mc t ~reference =
  let e_mu =
    100.0
    *. Float.abs (mean t -. reference.Experiment.worst_mean)
    /. Float.abs reference.Experiment.worst_mean
  in
  let e_sigma =
    100.0
    *. Float.abs (sigma t -. reference.Experiment.worst_sigma)
    /. Float.abs reference.Experiment.worst_sigma
  in
  (e_mu, e_sigma)
