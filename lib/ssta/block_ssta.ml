module Netlist = Circuit.Netlist
module Gate = Circuit.Gate

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Everything the canonical-form propagation needs that is a pure function
   of (gate locations, KLE models): the per-parameter expansion rows and
   the basis layout. A kind swap moves no gate, so an edit keeps it. *)
type ctx = {
  rows : buffer array; (* per parameter: the N_g x r_k expansion, row-major *)
  rs : int array;
  offsets : int array; (* column offset of parameter k in the basis *)
  basis_dim : int;
  logic_row : int array; (* per gate id; -1 for Input pseudo gates *)
}

type t = {
  basis_dim : int;
  worst : Canonical.t;
  endpoint_forms : Canonical.t array;
  arrival_forms : Canonical.t array;
  slew_forms : Canonical.t array;
  gates_recomputed : int;
  analysis_seconds : float;
}

type parent = { setup : Experiment.circuit_setup; ctx : ctx; result : t }

let zeros4 = Array.make Gate.num_parameters 0.0

let build_ctx (setup : Experiment.circuit_setup) ~models =
  if Array.length models <> Gate.num_parameters then
    invalid_arg "Block_ssta.run: need one KLE model per statistical parameter";
  let n_gates = Netlist.size setup.Experiment.netlist in
  let expansions =
    Array.map Kle.Sampler.expansion
      (Algorithm2.samplers_of models setup.Experiment.locations)
  in
  let rs = Array.map Linalg.Mat.cols expansions in
  let offsets = Array.make Gate.num_parameters 0 in
  for k = 1 to Gate.num_parameters - 1 do
    offsets.(k) <- offsets.(k - 1) + rs.(k - 1)
  done;
  let basis_dim = offsets.(Gate.num_parameters - 1) + rs.(Gate.num_parameters - 1) in
  let logic_row = Array.make n_gates (-1) in
  Array.iteri (fun row id -> logic_row.(id) <- row) setup.Experiment.logic_ids;
  { rows = Array.map Linalg.Mat.raw expansions; rs; offsets; basis_dim; logic_row }

(* canonical form of the statistical part of a gate quantity with linear
   parameter sensitivities [betas] (per unit sigma at this gate's
   location), plus — when [quad] is given — the rank-one quadratic's mean
   shift gamma * s² and its Var = 2 gamma² s⁴ as an independent term. The
   rows are read from the expansion buffers directly: a Bigarray read is a
   primitive, where a [Mat] accessor call from here boxes a float when
   cross-module inlining is off. *)
let statistical_part (ctx : ctx) g ~betas ~quad =
  let sens = Array.make ctx.basis_dim 0.0 in
  let row = ctx.logic_row.(g) in
  let s2 = ref 0.0 in
  if row >= 0 then
    for k = 0 to Gate.num_parameters - 1 do
      let b = ctx.rows.(k) and r = ctx.rs.(k) in
      let base = row * r and offset = ctx.offsets.(k) and beta = betas.(k) in
      let var_k = ref 0.0 in
      for j = 0 to r - 1 do
        let bij = Bigarray.Array1.unsafe_get b (base + j) in
        sens.(offset + j) <- beta *. bij;
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

(* The arrival and slew forms of gate [g] from its fanins' forms: arrival
   AND slew propagate, because slew variation feeds back into delay
   through the gate's k_slew sensitivity, which matters for the sigma of
   long paths. *)
let step (ctx : ctx) (setup : Experiment.circuit_setup) ~nominal_arrival ~nominal_slew ~forms
    ~slew_forms g =
  let prepared = setup.Experiment.sta in
  let basis_dim = ctx.basis_dim in
  let gate = setup.Experiment.netlist.Netlist.gates.(g) in
  let c_load = prepared.Sta.Timing.c_loads.(g) in
  match gate.Netlist.kind with
  | Gate.Input ->
      let d =
        Gate.delay Gate.Input ~slew_in:Sta.Timing.default_input_slew_ps ~c_load
          ~params:zeros4
      in
      let s =
        Gate.output_slew Gate.Input ~slew_in:Sta.Timing.default_input_slew_ps ~c_load
          ~params:zeros4
      in
      forms.(g) <- Canonical.constant ~dim:basis_dim d;
      slew_forms.(g) <- Canonical.constant ~dim:basis_dim s
  | Gate.Dff ->
      let timing = Gate.timing Gate.Dff in
      let nominal = Gate.clk_to_q ~params:zeros4 in
      let stat =
        statistical_part ctx g ~betas:timing.Gate.beta
          ~quad:(Some (timing.Gate.gamma, timing.Gate.w))
      in
      forms.(g) <- Canonical.add_constant stat nominal;
      let s_nom =
        Gate.output_slew Gate.Dff ~slew_in:Sta.Timing.default_input_slew_ps ~c_load
          ~params:zeros4
      in
      let s_stat = statistical_part ctx g ~betas:timing.Gate.beta_slew ~quad:None in
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
                     (Canonical.scale gain (Canonical.add_constant slew_forms.(f) (-.s_drv)))
                     s_pin
               end;
               Canonical.add_constant forms.(f) wire_elmore)
             gate.Netlist.fanins)
      in
      let merged = Canonical.max_many pins in
      let slew_in_nom = !best_slew_nom in
      let nominal_delay = Gate.delay kind ~slew_in:slew_in_nom ~c_load ~params:zeros4 in
      (* delay = nominal + beta·p + quad + k_slew * (slew_in - nominal) *)
      let stat =
        statistical_part ctx g ~betas:timing.Gate.beta
          ~quad:(Some (timing.Gate.gamma, timing.Gate.w))
      in
      let slew_dev = Canonical.add_constant !best_slew_form (-.slew_in_nom) in
      let delay_form =
        Canonical.add
          (Canonical.add_constant stat nominal_delay)
          (Canonical.scale timing.Gate.k_slew slew_dev)
      in
      forms.(g) <- Canonical.add merged delay_form;
      (* output slew form *)
      let s_nom = Gate.output_slew kind ~slew_in:slew_in_nom ~c_load ~params:zeros4 in
      let s_stat = statistical_part ctx g ~betas:timing.Gate.beta_slew ~quad:None in
      slew_forms.(g) <-
        Canonical.add
          (Canonical.add_constant s_stat s_nom)
          (Canonical.scale timing.Gate.k_slew_out slew_dev)

(* The one propagation pass: visit the gates in topological order, [step]
   each gate that [stale] names and keep the form already in [forms] and
   [slew_forms] for the rest, then fold the endpoints with Clark's max in
   endpoint order. *)
let propagate (ctx : ctx) (setup : Experiment.circuit_setup) ~timer ~forms ~slew_forms ~stale =
  let prepared = setup.Experiment.sta in
  let nominal_arrival, nominal_slew = Sta.Timing.nominal_arrival_and_slew prepared in
  let recomputed = ref 0 in
  Array.iter
    (fun g ->
      if stale g then begin
        incr recomputed;
        step ctx setup ~nominal_arrival ~nominal_slew ~forms ~slew_forms g
      end)
    prepared.Sta.Timing.order;
  Util.Trace.add Util.Trace.gates_recomputed !recomputed;
  let endpoint_forms = Array.map (fun e -> forms.(e)) prepared.Sta.Timing.endpoints in
  let worst = Canonical.max_many (Array.to_list endpoint_forms) in
  {
    basis_dim = ctx.basis_dim;
    worst;
    endpoint_forms;
    arrival_forms = forms;
    slew_forms;
    gates_recomputed = !recomputed;
    analysis_seconds = Util.Timer.elapsed_s timer;
  }

let analyse (setup : Experiment.circuit_setup) ~models =
  Util.Trace.with_span "block_ssta.run" @@ fun () ->
  let timer = Util.Timer.start () in
  let ctx = build_ctx setup ~models in
  let n_gates = Netlist.size setup.Experiment.netlist in
  let empty = Canonical.constant ~dim:ctx.basis_dim 0.0 in
  let result =
    propagate ctx setup ~timer ~forms:(Array.make n_gates empty)
      ~slew_forms:(Array.make n_gates empty) ~stale:(fun _ -> true)
  in
  { setup; ctx; result }

let run setup ~models = (analyse setup ~models).result

let is_logic = function Gate.Input | Gate.Dff -> false | _ -> true

(* The edit's cone: each gate whose kind changed, each gate whose load
   changed (a driver of a swapped pin of another capacitance; NAND2 and
   NOR2 pins are alike, so their drivers keep their loads), and the
   transitive fanout of those. A DFF launches at clk-to-q from its own load
   and reads no fanin, so the cone stops at DFF arrivals. Marking in
   topological order visits every fanin before its gate. *)
let rerun parent (setup : Experiment.circuit_setup) =
  Util.Trace.with_span "block_ssta.rerun" @@ fun () ->
  let timer = Util.Timer.start () in
  let old_gates = parent.setup.Experiment.netlist.Netlist.gates in
  let gates = setup.Experiment.netlist.Netlist.gates in
  let n_gates = Array.length gates in
  let not_an_edit () =
    invalid_arg "Block_ssta.rerun: the design is not a kind swap of the parent's"
  in
  if
    Array.length old_gates <> n_gates
    || setup.Experiment.placement.Circuit.Placer.locations
       <> parent.setup.Experiment.placement.Circuit.Placer.locations
  then not_an_edit ();
  let old_loads = parent.setup.Experiment.sta.Sta.Timing.c_loads in
  let loads = setup.Experiment.sta.Sta.Timing.c_loads in
  let cone =
    Array.mapi
      (fun g (gate : Netlist.gate) ->
        let old = old_gates.(g) in
        let fanins = gate.Netlist.fanins and old_fanins = old.Netlist.fanins in
        if
          not
            (Array.length fanins = Array.length old_fanins
            && Array.for_all2 Int.equal fanins old_fanins)
        then not_an_edit ();
        let swapped = gate.Netlist.kind <> old.Netlist.kind in
        if swapped && not (is_logic gate.Netlist.kind && is_logic old.Netlist.kind) then
          invalid_arg "Block_ssta.rerun: only logic gates may change kind";
        swapped || Int64.bits_of_float loads.(g) <> Int64.bits_of_float old_loads.(g))
      gates
  in
  let stale g =
    let gate = gates.(g) in
    let s =
      cone.(g)
      || (is_logic gate.Netlist.kind && Array.exists (fun f -> cone.(f)) gate.Netlist.fanins)
    in
    cone.(g) <- s;
    s
  in
  propagate parent.ctx setup ~timer ~forms:(Array.copy parent.result.arrival_forms)
    ~slew_forms:(Array.copy parent.result.slew_forms) ~stale

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
