module Netlist = Circuit.Netlist

type circuit_setup = {
  netlist : Netlist.t;
  placement : Circuit.Placer.placement;
  sta : Sta.Timing.prepared;
  logic_ids : int array;
  locations : Geometry.Point.t array;
}

let setup_circuit ?(placement_seed = 1) netlist =
  Util.Trace.with_span "experiment.setup_circuit" @@ fun () ->
  let placement = Circuit.Placer.place ~seed:placement_seed netlist in
  let wireload = Circuit.Wireload.build placement in
  let sta = Sta.Timing.prepare wireload in
  let logic_ids = Sta.Timing.logic_ids sta in
  let locations = Array.map (fun i -> placement.Circuit.Placer.locations.(i)) logic_ids in
  { netlist; placement; sta; logic_ids; locations }

let setup_edit setup netlist =
  Util.Trace.with_span "experiment.setup_edit" @@ fun () ->
  let sta =
    Sta.Timing.with_wireload setup.sta
      (Circuit.Wireload.with_netlist setup.sta.Sta.Timing.wireload netlist)
  in
  let placement = sta.Sta.Timing.wireload.Circuit.Wireload.placement in
  { setup with netlist; placement; sta }

type sampler = Prng.Rng.t -> n:int -> Linalg.Mat.t array

type nonfinite_policy = Fail | Skip

type mc_result = {
  n_samples : int;
  n_skipped : int;
  worst_mean : float;
  worst_sigma : float;
  endpoint_mean : float array;
  endpoint_sigma : float array;
  sample_seconds : float;
  sta_seconds : float;
}

(* Samples per accumulator range inside a batch. Fixed (never derived from
   the pool size) so the Welford merge tree — and therefore every output
   bit — is identical for any [jobs]. *)
let sta_chunk = 32

let run_mc ?(batch = 256) ?jobs ?(policy = Fail) ?diag setup ~sampler ~seed ~n =
  if n <= 0 then invalid_arg "Experiment.run_mc: n must be positive";
  if batch <= 0 then invalid_arg "Experiment.run_mc: batch must be positive";
  let stage = "experiment.run_mc" in
  let n_gates_total = Netlist.size setup.netlist in
  let n_logic = Array.length setup.logic_ids in
  let endpoints = setup.sta.Sta.Timing.endpoints in
  let n_endpoints = Array.length endpoints in
  let plan = Sta.Timing.plan setup.sta in
  let worst = ref (Stats.Welford.create ()) in
  let endpoint_acc = Array.init n_endpoints (fun _ -> Stats.Welford.create ()) in
  let sample_seconds = ref 0.0 in
  let sta_seconds = ref 0.0 in
  let skipped_total = ref 0 in
  Util.Trace.with_span
    ~attrs:[ ("n", string_of_int n); ("batch", string_of_int batch) ]
    "run_mc"
  @@ fun () ->
  Util.Pool.with_jobs ?jobs (fun pool ->
      let n_batches = (n + batch - 1) / batch in
      for bi = 0 to n_batches - 1 do
        Util.Trace.with_span
          ~attrs:
            [
              ("batch", string_of_int bi);
              ("domain", string_of_int (Domain.self () :> int));
            ]
          "mc.batch"
        @@ fun () ->
        let b = min batch (n - (bi * batch)) in
        (* each batch draws from its own counter-derived substream, so the
           sample set is a pure function of (seed, batch) *)
        let rng = Prng.Rng.substream ~seed ~stream:bi in
        let blocks, dt =
          Util.Timer.time (fun () ->
              Util.Trace.with_span "mc.sample" (fun () -> sampler rng ~n:b))
        in
        sample_seconds := !sample_seconds +. dt;
        (match blocks with
        | [| _; _; _; _ |] -> ()
        | _ -> invalid_arg "Experiment.run_mc: sampler must return 4 parameter blocks");
        Array.iter
          (fun blk ->
            if Linalg.Mat.cols blk <> n_logic then
              invalid_arg "Experiment.run_mc: sampler block width mismatch";
            if Linalg.Mat.rows blk <> b then
              invalid_arg "Experiment.run_mc: sampler block row-count mismatch")
          blocks;
        let rl = Linalg.Mat.raw blocks.(0) and rw = Linalg.Mat.raw blocks.(1) in
        let rvt = Linalg.Mat.raw blocks.(2) and rtox = Linalg.Mat.raw blocks.(3) in
        (* non-finite guard: scan the batch sequentially before the parallel
           STA fan-out. The skip mask is a pure function of the sampler
           output (itself a pure function of (seed, batch)), so the set of
           accumulated samples — and every output bit — stays independent of
           [jobs]. *)
        let bad = Array.make b false in
        let n_bad = ref 0 in
        Array.iteri
          (fun p blk ->
            let raw = Linalg.Mat.raw blk in
            for i = 0 to b - 1 do
              let row = i * n_logic in
              for g = 0 to n_logic - 1 do
                if not (Float.is_finite (Bigarray.Array1.unsafe_get raw (row + g)))
                then begin
                  (match policy with
                  | Fail ->
                      Util.Diag.fail ?sink:diag `Non_finite ~stage
                        (Printf.sprintf
                           "non-finite sample: batch %d, sample %d (global \
                            sample %d), parameter block %d, gate column %d"
                           bi i ((bi * batch) + i) p g)
                  | Skip -> ());
                  if not bad.(i) then begin
                    bad.(i) <- true;
                    incr n_bad
                  end
                end
              done
            done)
          blocks;
        if !n_bad > 0 then begin
          skipped_total := !skipped_total + !n_bad;
          Util.Diag.record ?sink:diag Warning `Skipped_samples ~stage
            (Printf.sprintf "batch %d: skipped %d of %d samples with non-finite \
                             parameter values" bi !n_bad b)
        end;
        let n_ranges = (b + sta_chunk - 1) / sta_chunk in
        let range_worst = Array.init n_ranges (fun _ -> Stats.Welford.create ()) in
        let range_endpoints =
          Array.init n_ranges (fun _ ->
              Array.init n_endpoints (fun _ -> Stats.Welford.create ()))
        in
        Util.Trace.add Util.Trace.mc_samples (b - !n_bad);
        Util.Trace.add Util.Trace.mc_skipped !n_bad;
        let t0 = Util.Timer.start () in
        Util.Trace.with_span "mc.sta" (fun () ->
        Util.Pool.parallel_for pool ~chunk:sta_chunk ~n:b (fun lo hi ->
            let ri = lo / sta_chunk in
            let w_acc = range_worst.(ri) and e_acc = range_endpoints.(ri) in
            (* per-range scratch, never shared across domains; [eval]
               writes every gate before any fanout reads it *)
            let arrival = Array.create_float n_gates_total in
            let slew = Array.create_float n_gates_total in
            for i = lo to hi - 1 do
              if not (Array.unsafe_get bad i) then begin
                Sta.Timing.eval plan ~l:rl ~w:rw ~vt:rvt ~tox:rtox ~row:(i * n_logic)
                  ~arrival ~slew;
                (* [Timing.run]'s left fold in endpoint order *)
                let worst = ref neg_infinity in
                for e = 0 to n_endpoints - 1 do
                  let a = Array.unsafe_get arrival (Array.unsafe_get endpoints e) in
                  worst := Float.max !worst a;
                  Stats.Welford.add (Array.unsafe_get e_acc e) a
                done;
                Stats.Welford.add w_acc !worst
              end
            done));
        sta_seconds := !sta_seconds +. Util.Timer.elapsed_s t0;
        (* combine per-range accumulators in fixed range order — the merge
           tree depends only on (n, batch, sta_chunk), not on the pool *)
        for ri = 0 to n_ranges - 1 do
          worst := Stats.Welford.merge !worst range_worst.(ri);
          let re = range_endpoints.(ri) in
          for e = 0 to n_endpoints - 1 do
            endpoint_acc.(e) <- Stats.Welford.merge endpoint_acc.(e) re.(e)
          done
        done
      done);
  if !skipped_total >= n then
    Util.Diag.fail ?sink:diag `Non_finite ~stage
      (Printf.sprintf
         "all %d samples carried non-finite parameter values; no statistics \
          available"
         n);
  {
    n_samples = n;
    n_skipped = !skipped_total;
    worst_mean = Stats.Welford.mean !worst;
    worst_sigma = Stats.Welford.std_dev !worst;
    endpoint_mean = Array.map Stats.Welford.mean endpoint_acc;
    endpoint_sigma = Array.map Stats.Welford.std_dev endpoint_acc;
    sample_seconds = !sample_seconds;
    sta_seconds = !sta_seconds;
  }

let run_mc_reference ?(batch = 256) setup ~sampler ~seed ~n =
  if n <= 0 then invalid_arg "Experiment.run_mc_reference: n must be positive";
  if batch <= 0 then invalid_arg "Experiment.run_mc_reference: batch must be positive";
  let n_gates = Netlist.size setup.netlist in
  let n_endpoints = Array.length setup.sta.Sta.Timing.endpoints in
  let worst = ref (Stats.Welford.create ()) in
  let endpoint_acc = Array.init n_endpoints (fun _ -> Stats.Welford.create ()) in
  for bi = 0 to ((n + batch - 1) / batch) - 1 do
    let b = min batch (n - (bi * batch)) in
    let blocks = sampler (Prng.Rng.substream ~seed ~stream:bi) ~n:b in
    let lo = ref 0 in
    while !lo < b do
      let hi = min b (!lo + sta_chunk) in
      let w_acc = Stats.Welford.create () in
      let e_acc = Array.init n_endpoints (fun _ -> Stats.Welford.create ()) in
      for i = !lo to hi - 1 do
        let scatter p =
          let a = Array.make n_gates 0.0 in
          Array.iteri (fun c id -> a.(id) <- Linalg.Mat.get blocks.(p) i c) setup.logic_ids;
          a
        in
        let r =
          Sta.Timing.run setup.sta ~l:(scatter 0) ~w:(scatter 1) ~vt:(scatter 2)
            ~tox:(scatter 3)
        in
        Stats.Welford.add w_acc r.Sta.Timing.worst_delay;
        Array.iteri (fun e a -> Stats.Welford.add e_acc.(e) a) r.Sta.Timing.endpoint_arrivals
      done;
      worst := Stats.Welford.merge !worst w_acc;
      Array.iteri
        (fun e acc -> endpoint_acc.(e) <- Stats.Welford.merge endpoint_acc.(e) acc)
        e_acc;
      lo := hi
    done
  done;
  {
    n_samples = n;
    n_skipped = 0;
    worst_mean = Stats.Welford.mean !worst;
    worst_sigma = Stats.Welford.std_dev !worst;
    endpoint_mean = Array.map Stats.Welford.mean endpoint_acc;
    endpoint_sigma = Array.map Stats.Welford.std_dev endpoint_acc;
    sample_seconds = 0.0;
    sta_seconds = 0.0;
  }

type comparison = {
  e_mu_pct : float;
  e_sigma_pct : float;
  sigma_err_avg_outputs_pct : float;
  excluded_endpoints : int;
  speedup : float;
}

let compare ~reference ~reference_setup_seconds ~candidate ~candidate_setup_seconds =
  let e_mu_pct =
    100.0
    *. Float.abs (candidate.worst_mean -. reference.worst_mean)
    /. Float.abs reference.worst_mean
  in
  let e_sigma_pct =
    100.0
    *. Float.abs (candidate.worst_sigma -. reference.worst_sigma)
    /. Float.abs reference.worst_sigma
  in
  let n_end = Array.length reference.endpoint_sigma in
  let sigma_err_avg, excluded =
    if n_end = 0 || Array.length candidate.endpoint_sigma <> n_end then (nan, n_end)
    else begin
      (* endpoints with zero reference sigma (e.g. constant arrival times)
         carry no relative-error information — skip them rather than
         poisoning the average with inf/nan, and report how many were
         excluded so an all-excluded nan is explainable *)
      let acc = ref 0.0 and counted = ref 0 in
      for e = 0 to n_end - 1 do
        let ref_sigma = Float.abs reference.endpoint_sigma.(e) in
        if ref_sigma > 0.0 then begin
          acc :=
            !acc
            +. Float.abs (candidate.endpoint_sigma.(e) -. reference.endpoint_sigma.(e))
               /. ref_sigma;
          incr counted
        end
      done;
      let avg = if !counted = 0 then nan else 100.0 *. !acc /. float_of_int !counted in
      (avg, n_end - !counted)
    end
  in
  let total r setup = setup +. r.sample_seconds +. r.sta_seconds in
  {
    e_mu_pct;
    e_sigma_pct;
    sigma_err_avg_outputs_pct = sigma_err_avg;
    excluded_endpoints = excluded;
    speedup =
      total reference reference_setup_seconds /. total candidate candidate_setup_seconds;
  }
