(** Staged, [Result]-typed façade over the kernel → sampler → Monte Carlo
    flow, with per-stage validation and typed diagnostics.

    The underlying modules ({!Algorithm1}, {!Algorithm2}, {!Experiment})
    raise typed exceptions and record {!Util.Diag} events; this module
    turns each stage into a total function returning
    [('a, Util.Diag.event) result], so drivers can compose the whole flow
    with [Result.bind], report the exact failing stage, and decide policy
    (strict vs. degraded) in one place:

    {[
      let p = Ssta.Pipeline.create () in
      match
        Ssta.Pipeline.run p (Kle Ssta.Algorithm2.paper_config)
          (Ssta.Process.paper_default ()) netlist ~seed:42 ~n:10_000
      with
      | Ok (_prepared, mc) -> report mc
      | Error e -> prerr_endline (Util.Diag.to_string e)
    ]}

    Validations performed stage by stage:
    - {!validate_process}: static kernel parameters
      ({!Kernels.Kernel.validate}) and an empirical PSD spot check of every
      distinct kernel on a deterministic point set
      ({!Kernels.Validity.is_psd_on});
    - {!validate_mesh}: structural soundness ({!Geometry.Mesh.check}) and
      minimum element angle;
    - {!prepare}: the factorization / eigensolution fallback chains run
      under it (events land in the sink), then KLE eigenvalues are checked
      finite and non-negative, and the prepared sampler is probe-drawn once
      to validate block count, shape and finiteness;
    - {!run_mc}: per-batch shape and non-finite guards of
      {!Experiment.run_mc} under the chosen policy.

    In [strict] mode any {e warning} recorded during a stage — a jittered
    or eigenvalue-clipped factorization, a Lanczos → dense fallback, an
    out-of-mesh clamp — fails that stage with the escalated event instead
    of degrading silently. *)

type t
(** Pipeline context: a diagnostic sink plus policy knobs. *)

val create : ?strict:bool -> ?diag:Util.Diag.sink -> ?jobs:int -> unit -> t
(** [create ()] makes a context with a fresh sink. [strict] (default
    [false]) escalates stage warnings to stage errors. [diag] supplies an
    external sink (shared with other instrumentation); [jobs] is passed to
    the parallel assembly/factorization/MC stages
    ({!Util.Pool.with_jobs} semantics — results never depend on it). *)

val diagnostics : t -> Util.Diag.sink
(** The sink every stage records into (shared, thread-safe). *)

val strict : t -> bool

type 'a staged = ('a, Util.Diag.event) result
(** Every stage returns the value or the typed event that failed it.
    Failing events are also recorded in {!diagnostics}. *)

val validate_process : t -> Process.t -> Process.t staged
(** Static validation of every parameter kernel plus an empirical PSD spot
    check on a deterministic quasi-random point set. Fails with
    [`Invalid_input] (bad static parameters) or [`Not_psd] (spot check). *)

val validate_mesh : ?min_angle_deg:float -> t -> Geometry.Mesh.t -> Geometry.Mesh.t staged
(** Structural mesh validation ({!Geometry.Mesh.check}) plus a minimum
    interior-angle floor (default 10°, well below the paper's 28° target —
    it catches broken meshes, not merely suboptimal ones). Fails with
    [`Invalid_input]. *)

val setup_circuit :
  ?placement_seed:int -> t -> Circuit.Netlist.t -> Experiment.circuit_setup staged
(** {!Experiment.setup_circuit} behind the staged interface. *)

type method_ =
  | Cholesky  (** Algorithm 1: full covariance + Cholesky *)
  | Kle of Algorithm2.config  (** Algorithm 2: truncated KLE expansion *)

type prepared =
  | Cholesky_prepared of Algorithm1.t
  | Kle_prepared of Algorithm2.t

val sampler_of : prepared -> Experiment.sampler
val setup_seconds_of : prepared -> float

val prepare :
  ?mesh:Geometry.Mesh.t ->
  t ->
  method_ ->
  Process.t ->
  Experiment.circuit_setup ->
  prepared staged
(** Build the per-circuit sampler. For [Kle] the die mesh is built from the
    config (or taken from [mesh]) and passed through {!validate_mesh}
    first; after the eigensolution, every model's eigenvalues are checked
    finite and non-negative. For both methods the sampler is probe-drawn
    on a two-sample batch and the blocks validated for count, shape, and
    finiteness before the prepared sampler is returned. All fallback
    events (jitter, PSD repair, Lanczos → dense, boundary clamps) are in
    {!diagnostics} — and fail the stage when {!strict}. *)

val run_mc :
  ?batch:int ->
  ?policy:Experiment.nonfinite_policy ->
  t ->
  Experiment.circuit_setup ->
  prepared ->
  seed:int ->
  n:int ->
  Experiment.mc_result staged
(** {!Experiment.run_mc} behind the staged interface, wired to the
    pipeline's sink and [jobs]. Note: under [strict], a [Skip] policy that
    actually skips samples fails the stage (the skip warning escalates). *)

val run :
  ?placement_seed:int ->
  ?mesh:Geometry.Mesh.t ->
  ?batch:int ->
  ?policy:Experiment.nonfinite_policy ->
  t ->
  method_ ->
  Process.t ->
  Circuit.Netlist.t ->
  seed:int ->
  n:int ->
  (prepared * Experiment.mc_result) staged
(** The whole flow: [validate_process] → [setup_circuit] → [prepare]
    (incl. mesh validation for [Kle]) → [run_mc], stopping at the first
    failing stage. *)
