(** Deterministic chaos harness for the serving tier.

    Replays a fixed request mix against an in-process {!Server} while a
    counter-selected fault schedule ({!Util.Fault.io_plan}) injects worker
    crashes, store read errors, short reads, torn writes and latency —
    then asserts the self-healing invariants:

    - {b zero wrong results}: every successful MC response is compared
      bit-for-bit ([worst_mean]/[worst_sigma] IEEE-754 bit patterns)
      against a fault-free baseline computed first;
    - {b every failure is typed}: a client-visible failure must be a
      protocol error ([internal_error] from quarantine, [overloaded], …),
      never a lost reply or a hang;
    - {b bounded error rate} and a minimum number of injected faults (the
      run must actually have been stressed);
    - {b recovery}: after the storm, the server answers [health] as
      healthy — workers alive, queue empty — within a bounded number of
      probes;
    - {b correlation-ID propagation}: every chaos request carries a
      [req_id], and every reply — including replies to retried sends —
      must echo it exactly once (a raw substring count
      catches duplicated fields a JSON parser would collapse).

    Both [bench chaos] and the [test_serve] chaos test drive this module,
    so CI and [dune runtest] assert the same invariants. *)

type config = {
  requests : int;  (** total requests in the storm *)
  workers : int;
  mc_samples : int;  (** MC sample count per run_mc request *)
  max_area_fraction : float;  (** mesh coarseness (small = fast tests) *)
  crash_period : int;  (** worker-crash plan period (per dequeued job) *)
  crash_limit : int;  (** cap on injected crashes *)
  read_error_period : int;  (** store-read failure period (per store read) *)
  short_read_period : int;
  torn_write_period : int;  (** per store write *)
  latency_period : int;  (** per store read or write *)
  latency_ms : float;
  client_timeout_s : float;  (** per-attempt client timeout *)
  recovery_probes : int;  (** health probes before declaring no recovery *)
}

val default_config : config
(** 120 requests on 2 workers, all five fault families enabled at periods
    that inject well over 50 faults. *)

type fault_count = { fault : string; fired : int }

type report = {
  requests : int;
  ok : int;  (** requests answered [ok] *)
  checked : int;  (** MC responses compared against the baseline *)
  wrong_results : int;  (** bit-level mismatches — the invariant is 0 *)
  typed_errors : int;  (** requests answered with a typed protocol error *)
  transport_failures : int;  (** timeouts / lost replies — the invariant is 0 *)
  id_violations : int;
      (** replies that did not echo their request's [req_id] exactly once —
          the invariant is 0 *)
  faults_injected : int;
  fault_counts : fault_count list;  (** per-family injection counts *)
  worker_restarts : int;
  quarantined : int;
  recovered : bool;  (** the final [health] probe came back healthy *)
  client : Client.stats;
}

val report_to_string : report -> string

val violations : ?min_faults:int -> report -> string list
(** The violated invariants, as human-readable messages; empty when the
    run passed. [min_faults] defaults to 50 (the acceptance bar). *)

val run :
  ?diag:Util.Diag.sink -> ?log:(string -> unit) -> store_dir:string -> config -> report
(** Run baseline, storm and recovery probe. [store_dir] is the chaos
    server's store directory (created if needed; faults are injected
    behind it — use a scratch directory). [log] receives progress lines. *)
