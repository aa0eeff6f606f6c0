(** Concurrent SSTA analysis server: the engine behind [ssta_serve] and
    [bench serve].

    Requests arrive as JSON lines ({!submit}), are validated by
    {!Protocol}, and are executed on a fixed pool of worker domains fed by
    a {e bounded} job queue:

    - {b Backpressure}: when the queue is full, {!submit} replies
      immediately with a typed [overloaded] error instead of buffering
      unboundedly — clients see load instead of latency.
    - {b Deadlines}: a request's [deadline_ms] is converted to an absolute
      monotonic deadline at submission and checked when a worker dequeues
      it; an expired request is answered [deadline_exceeded] without
      doing the work.
    - {b Caching}: prepared artifacts (circuit setups, KLE models, and
      each retimed design's parent state: its setup, expansion rows and
      per-gate forms) are served from an in-memory {!Lru}; KLE models,
      which cost seconds to solve, also sit in the optional on-disk
      {!Persist.Store}, while a setup or parent state (milliseconds) is
      rebuilt after a restart. A [retime] edit re-propagates its cone
      from the parent state and is never cached itself. Responses report
      which tier answered ([hit-mem] / [hit-disk] / [miss] / [recovered];
      a setup or parent state is only ever [hit-mem] or [miss]).
    - {b Draining}: {!begin_drain} stops intake (new submissions are
      answered [shutting_down]) while queued requests still complete;
      {!drain} additionally joins the workers. A [shutdown] request
      replies ok and then begins the drain.
    - {b Supervision}: every worker domain runs under {!Supervisor.spawn}.
      An exception that escapes the per-request barrier (a genuine bug, or
      an injected [chaos_crash]) restarts the worker with capped
      exponential backoff, bumps the [worker_restarts] counter and records
      a [Warning] [serve.worker] diagnostic, and re-queues the
      in-flight request for one retry; a request that kills a worker
      {e twice} is quarantined — answered with a typed [internal_error]
      instead of being retried forever.

    Each executed request runs inside a [serve.request] {!Util.Trace} span
    (attributes: method, [req_id]), so a traced serving run attributes
    time per request.

    {b Telemetry}: every executed request is recorded into a per-server
    {!Telemetry} registry — per-stage latency histograms (batch wait,
    queue wait, cache lookup, compute, reply write), a slow-request ring,
    and an optional structured request log. The [metrics] protocol method
    returns the full registry (counters + quantiles + mergeable histogram
    snapshots + Prometheus text); [debug] returns the slow-request ring.
    Requests carry a correlation ID end-to-end: the client's [req_id] if
    it sent one (echoed verbatim in the reply), or one minted at ingress
    ([srv-<instance>-<seq>], telemetry-only, never echoed). *)

type config = {
  store_dir : string option;  (** [None] disables the KLE-model disk tier *)
  cache_entries : int;  (** in-memory LRU capacity *)
  queue_capacity : int;  (** bounded queue length; beyond it, [overloaded] *)
  workers : int;  (** worker domains executing requests *)
  jobs : int option;  (** per-request compute fan-out ({!Util.Pool.with_jobs}) *)
  placement_seed : int;  (** placement seed for circuit setups *)
  kle : Ssta.Algorithm2.config;  (** mesh + eigensolve configuration *)
  drain_timeout_s : float option;
      (** default join timeout for {!drain}; [None] waits forever *)
  store_io_faults : Util.Fault.io_plan list;
      (** chaos testing: I/O fault plans passed to {!Persist.Store.open_} *)
  chaos_crash : Util.Fault.io_plan option;
      (** chaos testing: when the plan fires, the worker that just dequeued
          a request dies {e before} executing it *)
  chaos_crash_after : Util.Fault.io_plan option;
      (** chaos testing: the worker dies {e after} replying but before
          releasing the request — the re-run exercises the exactly-once
          reply guard *)
  slow_ms : float;
      (** slow-request threshold for the {!Telemetry} ring ([debug]
          method); [0.] admits every request, so the ring holds the most
          recent [slow_ring] requests *)
  slow_ring : int;  (** slow-request ring capacity *)
  request_log : (Jsonx.t -> unit) option;
      (** structured request-log sink ([ssta_serve --log-json]): one JSON
          object per executed request. Called from worker domains — must be
          thread-safe. *)
}

val default_config : config
(** No disk store, 32 cache entries, queue of 64, 2 workers, sequential
    compute ([jobs = Some 1]), placement seed 1,
    {!Ssta.Algorithm2.paper_config}, 30 s drain timeout, no fault
    injection, [slow_ms = 0.], [slow_ring = 64], no request log. *)

type t

val create : ?diag:Util.Diag.sink -> config -> t
(** Spawns the worker domains; opens the store when [store_dir] is set. *)

val diagnostics : t -> Util.Diag.sink

val telemetry : t -> Telemetry.t
(** The server's telemetry registry — what the [metrics] and [debug]
    protocol methods expose. [bench serve] resets it between sweep rows
    and reads server-side quantiles from it directly. *)

val submit : t -> string -> reply:(string -> unit) -> unit
(** Decode one JSON request line and enqueue it. [reply] is called exactly
    once per submission, with one JSON response line (no newline) —
    possibly synchronously (decode errors, backpressure, draining) or later
    from a worker domain. [reply] must be thread-safe. *)

val shutdown_requested : t -> bool
(** True once a [shutdown] request has been executed (the transport loop
    should stop reading and call {!drain}). *)

val begin_drain : t -> unit
(** Stop accepting new requests; queued work still completes. Idempotent. *)

val drain : ?timeout_s:float -> t -> unit
(** {!begin_drain}, then wait for the queue to empty and join the workers.
    The join is bounded by [timeout_s] (default: the config's
    [drain_timeout_s]); when it expires — a worker stuck in a compute or a
    blocked [reply] — a [Warning] [serve.drain] diagnostic is recorded and
    the workers are detached instead of hanging the caller forever. A
    later [drain] call waits on the same join. Idempotent; must not be
    called from a worker (i.e. from inside [reply]). *)

val worker_restarts : t -> int
(** Workers restarted by the supervisor since {!create}. *)

val quarantined : t -> int
(** Requests quarantined after repeatedly crashing workers. *)

val stats_payload : t -> Jsonx.t
(** The same JSON object a [stats] request returns: request/reject/deadline
    counters, [replies_dropped] (replies that raised mid-write — a dead
    client), [requeued] and [singleflight_dedup], queue occupancy, worker
    restart/quarantine counts, LRU and store statistics. *)

