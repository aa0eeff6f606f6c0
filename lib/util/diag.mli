(** Typed diagnostics for the numerically fragile stages of the pipeline
    (kernel -> Galerkin eigensolve -> truncation -> sampling -> MC STA).

    Every recoverable numerical event — a Cholesky that needed jitter, a
    Lanczos run that fell back to the dense solver, a gate location clamped
    back into the mesh — is recorded as a typed {!event} in a thread-safe
    {!sink} instead of (or in addition to) an ad-hoc exception, so a run can
    degrade gracefully and still report exactly what it did. Unrecoverable
    failures raise {!Failure} carrying the same typed event. *)

type severity = Info | Warning | Error

type code =
  [ `Not_psd  (** a matrix that must be PSD is indefinite *)
  | `No_convergence  (** an iterative solver ran out of budget *)
  | `Non_finite  (** a NaN/inf appeared in a numeric stage *)
  | `Out_of_domain  (** a die location fell outside the mesh *)
  | `Degraded_fallback  (** a fallback path produced a degraded result *)
  | `Invalid_input  (** static validation rejected an input *)
  | `Fault_injected  (** a test harness fault fired *)
  | `Skipped_samples  (** Monte Carlo samples were dropped by policy *) ]

type event = {
  severity : severity;
  code : code;
  stage : string;  (** dotted origin, e.g. ["mvn.of_covariance"] *)
  detail : string;
}

exception Failure of event
(** Raised by {!fail} (and by strict guards throughout the libraries) so
    callers can match on one typed exception instead of a scatter of
    per-module ones. *)

type sink
(** A mutex-protected per-run event collector; safe to share across the
    worker domains of {!Pool}. *)

val create : unit -> sink

val record : ?sink:sink -> severity -> code -> stage:string -> string -> unit
(** [record ?sink severity code ~stage detail] appends an event. Without a
    sink this is a no-op — library code can emit unconditionally and let the
    caller decide whether to listen. *)

val fail : ?sink:sink -> code -> stage:string -> string -> 'a
(** Record an [Error] event (when a sink is given) and raise {!Failure}
    with it. *)

val events : sink -> event list
(** All recorded events, oldest first. *)

val count : ?min_severity:severity -> ?code:code -> sink -> int
(** Number of recorded events, optionally filtered by minimum severity
    and/or exact code. *)

val clear : sink -> unit

val severity_rank : severity -> int
(** [Info] = 0, [Warning] = 1, [Error] = 2. *)

val to_string : event -> string
(** ["[warning] mvn.of_covariance (not-psd): ..."] *)

val pp_event : Format.formatter -> event -> unit

val to_json : event -> string
(** One-line JSON object with [severity]/[code]/[stage]/[detail] fields,
    for machine-readable strict-mode reports. *)
