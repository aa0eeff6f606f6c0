(** Retrying client for the serving protocol (JSON lines, {!Protocol}).

    Wraps any line-in/line-out transport (the in-process {!Server.submit},
    or a socket/pipe writer) with the retry discipline a production caller
    needs:

    - a {b per-attempt timeout} — a lost reply costs [timeout_s], not
      forever;
    - {b bounded retries with exponential backoff and deterministic
      jitter} — only for {e retryable} failures: [overloaded],
      [deadline_exceeded], transport errors and timeouts. Permanent
      failures ([bad_params], [netlist_error], …) return immediately, and
      so does [internal_error]: the server answers it when a request has
      been {e quarantined} for crashing workers, so retrying it would
      crash more;
    - a {b circuit breaker}: after [breaker_threshold] consecutive
      failures the client fails fast ([Circuit_open]) for
      [breaker_cooldown_s], then lets one probe call through (half-open) —
      a dead server costs one timeout per cooldown, not one per call.

    Backoff jitter comes from a seeded LCG, not a wall clock (lib code
    takes no ambient time source; lint rule 4), so a fixed-seed client
    retries on an exactly reproducible schedule. All entry points are
    thread-safe. *)

type transport = string -> reply:(string -> unit) -> unit
(** Send one JSON request line; [reply] is invoked (possibly on another
    thread) with the response line. [Server.submit server] is a
    transport. *)

type policy = {
  timeout_s : float option;  (** per-attempt reply timeout; [None] waits forever *)
  max_attempts : int;  (** total attempts, including the first (≥ 1) *)
  backoff_s : float;  (** delay before the first retry *)
  backoff_mult : float;  (** backoff growth per retry *)
  max_backoff_s : float;  (** backoff ceiling *)
  jitter : float;  (** each delay is scaled by a factor in [1 ± jitter] *)
  breaker_threshold : int;  (** consecutive failures that open the breaker *)
  breaker_cooldown_s : float;  (** fail-fast window before the half-open probe *)
}

val default_policy : policy
(** 60 s timeout, 4 attempts, 10 ms backoff doubling to 1 s, 20% jitter,
    breaker at 8 consecutive failures with a 1 s cooldown. *)

type failure =
  | Protocol_error of Protocol.error_code * string
      (** the server answered a typed error (after retries, if retryable) *)
  | Timed_out of float  (** no reply within the per-attempt timeout *)
  | Transport_failed of string  (** send failed or the reply was unparseable *)
  | Circuit_open  (** failing fast; no request was sent *)

val failure_to_string : failure -> string

type stats = {
  calls : int;
  attempts : int;  (** transport sends, including retries *)
  retries : int;
  failures : int;  (** calls that returned [Error] *)
  breaker_opens : int;
}

type t

val create :
  ?diag:Util.Diag.sink ->
  ?policy:policy ->
  ?seed:int ->
  transport ->
  t
(** [diag] receives [serve.client] events: [Info] per retry, [Warning]
    when the breaker opens. [seed] fixes the jitter schedule. *)

val call : ?expect:string -> t -> string -> (Jsonx.t, failure) result
(** Send one pre-encoded request line and block for the final outcome:
    the [ok] payload, or the failure that exhausted the policy. [expect] is
    the request's correlation ID: a reply echoing a {e different} [req_id]
    is a crossed wire, classified as a retryable [Transport_failed] (a
    reply with no echo — an old server, or an error minted before request
    decode — is accepted). *)

val call_request : t -> Protocol.request -> (Jsonx.t, failure) result
(** Encode the request ({!Protocol.encode_request}) as one JSON line and
    {!call} it. Raises [Invalid_argument] for a request
    {!Protocol.encode_request} refuses. When the request carries no
    [req_id], one is generated ([cli-<seed>-<n>]) and its echo verified,
    so every call is traceable end-to-end. *)

val stats : t -> stats
