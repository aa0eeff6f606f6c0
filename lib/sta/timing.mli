(** Block-based static timing analysis — the "core timer inside the Monte
    Carlo loops" of the paper's Section 5.1.

    Signal delays are computed at all circuit nodes in topological order,
    using the Elmore metric for wire delay, PERI + Bakoglu for wire slew,
    and the rank-one quadratic gate model for gate delay/output slew, as
    functions of input slew and the four statistical parameters (L, W, Vt,
    tox) of each gate. *)

type prepared = {
  wireload : Circuit.Wireload.t;
  order : int array; (* topological order *)
  endpoints : int array;
  c_loads : float array; (* per driving gate: wire + sink pins, fF *)
}

val prepare : Circuit.Wireload.t -> prepared
(** Precompute everything that does not depend on parameter values. *)

val with_wireload : prepared -> Circuit.Wireload.t -> prepared
(** [with_wireload p wireload] is [prepare wireload] for a wire-load model
    of [p]'s design after a logic kind swap (as
    {!Circuit.Wireload.with_netlist} builds it): the same connectivity and
    source gates keep the order and endpoints, and only the loads are
    recomputed. Raises [Invalid_argument] when the gate count differs or
    a gate changed between input, DFF and logic. *)

val logic_ids : prepared -> int array
(** Ids of the non-[Input] gates, ascending: entry [c] is the gate whose
    parameters sit in column [c] of the rows {!eval} reads. *)

type plan
(** The timer compiled for the Monte Carlo loop: the topological order, the
    fanins in CSR form with each edge's wire Elmore delay and squared
    Bakoglu wire slew, each gate's {!Circuit.Gate.timing} coefficients
    (with [r_drive · c_load] folded in) in flat float arrays, and each
    gate's logic column. *)

val plan : prepared -> plan
(** Compile [prepared] for {!eval}, in time linear in gates plus fanin
    edges. A plan is read-only, so any number of domains may evaluate
    samples through one plan at once. *)

type params = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val eval :
  plan ->
  l:params ->
  w:params ->
  vt:params ->
  tox:params ->
  row:int ->
  arrival:float array ->
  slew:float array ->
  unit
(** [eval plan ~l ~w ~vt ~tox ~row ~arrival ~slew] times one sample whose
    parameters for logic column [c] (see {!logic_ids}) are [l.{row + c}],
    [w.{row + c}], …; [Input] gates take zero parameters. It writes every
    gate's output arrival and slew into the caller's scratch (indexed by
    gate id, at least the gate count long) and allocates nothing. The
    arrivals are bit-identical to {!arrival_times} given the same
    parameters scattered to gate ids with zeros at [Input] gates. Raises
    [Invalid_argument] when a parameter row or the scratch is too short. *)

type result = {
  worst_delay : float; (* max endpoint arrival, ps *)
  endpoint_arrivals : float array; (* one per [endpoints] entry *)
}

val run :
  prepared ->
  l:float array ->
  w:float array ->
  vt:float array ->
  tox:float array ->
  result
(** [run p ~l ~w ~vt ~tox] times the circuit with per-gate normalized
    parameter values (each array indexed by gate id, length = gate count).
    Raises [Invalid_argument] on length mismatch. *)

val run_nominal : prepared -> result
(** All parameters at their mean (zero): the deterministic corner. *)

val nominal_arrival_and_slew : prepared -> float array * float array
(** Per-gate output arrival and output slew at the nominal corner (all
    parameters zero) — the linearization point for block-based SSTA. *)

val arrival_times :
  prepared ->
  l:float array ->
  w:float array ->
  vt:float array ->
  tox:float array ->
  float array
(** Full per-gate arrival times (output-node arrival for each gate), for
    tests and debugging. *)

val default_input_slew_ps : float
(** Slew assumed at primary inputs (50 ps). *)

type slack_report = {
  clock_period : float;
  slacks : float array; (* per gate: required - arrival at the gate output *)
  worst_slack : float;
  critical_path : int array; (* gate ids from a source to the worst endpoint *)
}

val slack_report : ?clock_period:float -> prepared -> slack_report
(** Nominal-corner required-time / slack analysis. [clock_period] defaults
    to the nominal worst delay (so the critical path has zero slack). The
    critical path is traced back from the worst endpoint through each
    gate's latest-arriving input pin. Gates that reach no endpoint keep
    slack [infinity]. *)
