(** Hierarchical tracing + typed metrics for the KLE → SSTA pipeline.

    One subsystem answers "where did the time and the numerical work go":

    - {b Spans} ({!with_span}) form a tree of named, monotonically
      timestamped intervals with string attributes. Each domain keeps its
      own span stack; {!Pool} workers inherit the submitting span as an
      ambient parent, so worker-side events land under the right subtree.
    - {b Counters} ({!counter}, {!add}) are atomic integers for work
      metrics: kernel evaluations, matvecs, Lanczos iterations, Cholesky
      jitter retries, Monte Carlo samples/skips, matmul flops, pool
      wait/run nanoseconds. GC words allocated since {!enable}/{!reset}
      are tracked as gauges from [Gc.quick_stat] snapshots.
    - {b Exporters}: {!write_chrome_trace} emits Chrome [trace_event] JSON
      (load in [chrome://tracing] or Perfetto; one track per domain) and
      {!summary} aggregates the span tree (total/self
      time, call counts) plus counter totals.

    The tracer is {b off by default}: every entry point is a single load
    and branch on a disabled flag, allocates nothing, and returns
    immediately — library code can instrument unconditionally.

    Span {e structure} (the multiset of span paths, {!structure}) is
    deterministic for any pool size: structural spans are only opened on
    the submitting domain, and work counters are bulk-computed from the
    problem shape, never from the chunk schedule. Pool worker activity is
    recorded as track-only ("pool.job") spans and wait/run counters that
    never enter the structural tree. *)

val enabled : unit -> bool
(** Single-branch fast path; all other entry points check this first. *)

val enable : unit -> unit
(** Turn tracing + counting on and snapshot the GC baseline. *)

val disable : unit -> unit

val reset : unit -> unit
(** Clear all recorded events and zero all counters (the registry itself
    is kept). Call only between runs, when no spans are open. *)

val now_ns : unit -> int
(** Monotonic nanoseconds (CLOCK_MONOTONIC); the single clock source for
    the whole repo — {!Timer} is a thin veneer over it. *)

(** {1 Spans} *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span ~attrs name f] runs [f] inside a span named [name], nested
    under the current domain's innermost open span (or the ambient pool
    parent). Exception-safe: the span closes on raise. Disabled: [f ()]. *)

val instant : ?attrs:(string * string) list -> string -> unit
(** Zero-duration event on the current track, attached to the active
    span's path — used by {!Diag} to put degraded fallbacks on the
    timeline. *)

val current_path : unit -> string
(** [";"]-joined path of the innermost open span ([""] at top level). *)

val with_pool_job : parent:string -> (unit -> 'a) -> 'a
(** Pool-internal: run [f] on a worker domain with [parent] (a span path
    captured at submission) as the ambient parent, inside a track-only,
    non-structural "pool.job" span. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Register (or look up) a named counter. Registration order is the
    reporting order. *)

val add : counter -> int -> unit
(** Atomic add; a no-op (one branch) when disabled. *)

val incr : counter -> unit
val value : counter -> int

val counters : unit -> (string * int) list
(** All registered counters with current values, in registration order. *)

(** Well-known counters (registered at module load, in this order): *)

val kernel_evals : counter
(** Exact correlation-kernel evaluations (assembly, Gram, profile-table
    build and probes; table {e lookups} are not kernel evals). *)

val matvecs : counter
(** Operator applications driven by the Lanczos eigensolver. *)

val matmul_flops : counter
(** 2·m·n·k flops accumulated by [Mat.mul] / [Mat.mul_nt]. *)

val lanczos_iterations : counter
(** Krylov basis dimension reached, summed over solves. *)

val cholesky_jitter_retries : counter
(** Failed factorization attempts that forced a larger diagonal jitter. *)

val mc_samples : counter
(** Monte Carlo samples accumulated by [Experiment.run_mc]. *)

val mc_skipped : counter
(** Samples dropped by the non-finite [Skip] policy. *)

val pool_wait_ns : counter
(** Nanoseconds pool workers spent blocked waiting for a job. *)

val pool_run_ns : counter
(** Nanoseconds pool workers spent executing job bodies. *)

val nearfield_evals : counter
(** Entry evaluations spent on dense near-field blocks of a hierarchical
    operator build. *)

val aca_rank_sum : counter
(** Sum of ACA ranks over all admissible far-field blocks built. *)

val htree_nodes : counter
(** Cluster-tree nodes created by hierarchical operator builds. *)

val hmatrix_near_blocks : counter
(** Dense near-field blocks in built hierarchical operators. *)

val hmatrix_far_blocks : counter
(** Low-rank far-field blocks in built hierarchical operators. *)

val gates_recomputed : counter
(** Gates whose arrival and slew forms block SSTA computed: every gate of a
    flat pass, the edit's cone in a re-analysis. *)

(** {1 Aggregation and export} *)

type node = {
  name : string;
  path : string;  (** [";"]-joined names from the root *)
  count : int;
  total_ns : int;
  self_ns : int;  (** total minus time in direct structural children *)
  children : node list;
}

val span_tree : unit -> node list
(** Structural spans aggregated by path; children sorted by path, so the
    tree is deterministic for any pool size. *)

val structure : unit -> (string * int) list
(** [(path, count)] pairs sorted by path — the span-tree {e shape}, for
    tests asserting [-j]-independence. *)

val summary : unit -> string
(** Pretty text: span tree with total/self seconds and call counts,
    non-zero counters, GC deltas. *)

val write_chrome_trace : string -> unit
(** Write all recorded events as Chrome [trace_event] JSON ("X" complete
    events, "i" instants, one [tid] per domain). Spans still open on the
    calling domain are flushed with their current duration. The file is
    committed atomically ({!Fileio.with_atomic_out}), so an interrupted
    run never leaves a truncated trace. *)
