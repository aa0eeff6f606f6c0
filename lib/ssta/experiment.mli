(** Monte Carlo SSTA experiment driver: runs a prepared circuit through the
    core timer with any of the samplers (Algorithm 1, Algorithm 2, grid+PCA)
    and computes the paper's comparison metrics (e_μ, e_σ, speedup;
    Table 1 and Fig. 6). *)

type circuit_setup = {
  netlist : Circuit.Netlist.t;
  placement : Circuit.Placer.placement;
  sta : Sta.Timing.prepared;
  logic_ids : int array; (* non-Input gate ids, the paper's N_g RVs *)
  locations : Geometry.Point.t array; (* their placed die locations *)
}

val setup_circuit : ?placement_seed:int -> Circuit.Netlist.t -> circuit_setup
(** Place the netlist, build wire loads, prepare the timer, and collect the
    logic-gate locations that the spatial samplers operate on, under the
    span [experiment.setup_circuit]. *)

val setup_edit : circuit_setup -> Circuit.Netlist.t -> circuit_setup
(** [setup_edit setup netlist] is the setup of [netlist], a logic kind
    swap of [setup]'s design with the same gates and connectivity, on
    [setup]'s placement: it recomputes only the pin loads of the nets that
    drive a swapped gate ({!Circuit.Wireload.with_netlist},
    {!Sta.Timing.with_wireload}) and keeps everything else.
    {!Circuit.Placer.place} reads no gate kind, so the result equals
    [setup_circuit netlist] at [setup]'s placement seed. Runs under the
    span [experiment.setup_edit]; raises [Invalid_argument] when
    [netlist] is no such swap. *)

type sampler = Prng.Rng.t -> n:int -> Linalg.Mat.t array
(** Produces, for a batch of [n] Monte Carlo samples, one [n x N_g] matrix
    per statistical parameter (values for the [logic_ids] gates, in order). *)

type nonfinite_policy =
  | Fail  (** raise a typed diagnostic naming the first bad batch/sample *)
  | Skip  (** drop offending samples, count them in [n_skipped] *)

type mc_result = {
  n_samples : int;
  n_skipped : int;
      (* samples dropped by the [Skip] non-finite policy (0 under [Fail]) *)
  worst_mean : float;
  worst_sigma : float;
  endpoint_mean : float array;
  endpoint_sigma : float array;
  sample_seconds : float; (* parameter-sample generation time *)
  sta_seconds : float; (* timing-propagation time *)
}

val run_mc :
  ?batch:int ->
  ?jobs:int ->
  ?policy:nonfinite_policy ->
  ?diag:Util.Diag.sink ->
  circuit_setup ->
  sampler:sampler ->
  seed:int ->
  n:int ->
  mc_result
(** Run [n] Monte Carlo STA samples, generated in batches of [batch]
    (default 256, bounds memory). Each batch draws from its own
    counter-derived RNG substream ({!Prng.Rng.substream} of [(seed, batch
    index)]), and the per-sample timing runs inside a batch are fanned out
    over [jobs] domains ({!Util.Pool.with_jobs} semantics). Results are a
    pure function of [(setup, sampler, seed, n, batch, policy)] —
    bit-identical for every [jobs] value, including sequential.

    This is every caller's guard on the sampler's output; no caller
    probes a sampler beforehand. The sampler must return exactly four
    [b x N_g] blocks (l, w, vt, tox) for a batch of [b]; the count and
    both dimensions are validated on every batch. Every batch is scanned for non-finite parameter values before the
    timing fan-out. Under [policy = Fail] (default) the first offending
    entry raises [Util.Diag.Failure] with [`Non_finite], naming the batch,
    sample, parameter block and gate column. Under [Skip], offending
    samples are excluded from the statistics and counted in [n_skipped]
    (one [`Skipped_samples] warning per affected batch goes to [diag]);
    the skip mask depends only on the sampler output, never on [jobs], so
    the determinism contract above still holds. If {e every} sample is
    skipped, [Util.Diag.Failure] with [`Non_finite] is raised.

    @raise Invalid_argument if [n <= 0], [batch <= 0], or the sampler
    returns blocks of the wrong shape. *)

val run_mc_reference :
  ?batch:int -> circuit_setup -> sampler:sampler -> seed:int -> n:int -> mc_result
(** The per-sample oracle of {!run_mc}, kept for tests and the bench
    [smoke] check: the same batches, substreams, accumulator ranges and
    merge order, but each sample is scattered into full-size parameter
    arrays (zeros at [Input] gates) and timed by {!Sta.Timing.run}.
    Sequential, with no non-finite guard and zero timings. On finite
    samples {!run_mc} must match it bit for bit.

    @raise Invalid_argument if [n <= 0] or [batch <= 0]. *)

type comparison = {
  e_mu_pct : float; (* |Δmean| as % of reference mean *)
  e_sigma_pct : float; (* |Δsigma| as % of reference sigma *)
  sigma_err_avg_outputs_pct : float;
      (* Fig. 6 metric: per-endpoint sigma error, averaged over endpoints *)
  excluded_endpoints : int;
      (* endpoints excluded from the average (zero reference sigma, or all
         of them on an endpoint-count mismatch) — lets callers print
         "n/a (k excluded)" instead of a bare nan *)
  speedup : float; (* reference total time / candidate total time *)
}

val compare :
  reference:mc_result ->
  reference_setup_seconds:float ->
  candidate:mc_result ->
  candidate_setup_seconds:float ->
  comparison
(** Paper metrics. [speedup] compares end-to-end times including each
    sampler's per-circuit setup (Cholesky for Algorithm 1, expansion-matrix
    construction for Algorithm 2) — the KLE eigensolution itself is circuit-
    independent and reported separately, as in the paper.

    Endpoints whose reference sigma is exactly zero (constant arrivals)
    are excluded from [sigma_err_avg_outputs_pct]; if every endpoint is
    excluded the metric is [nan]. [excluded_endpoints] reports how many
    were dropped, so callers can print the reason instead of the nan. *)
