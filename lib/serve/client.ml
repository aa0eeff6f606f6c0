type transport = string -> reply:(string -> unit) -> unit

type policy = {
  timeout_s : float option;
  max_attempts : int;
  backoff_s : float;
  backoff_mult : float;
  max_backoff_s : float;
  jitter : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
}

let default_policy =
  {
    timeout_s = Some 60.0;
    max_attempts = 4;
    backoff_s = 0.01;
    backoff_mult = 2.0;
    max_backoff_s = 1.0;
    jitter = 0.2;
    breaker_threshold = 8;
    breaker_cooldown_s = 1.0;
  }

type failure =
  | Protocol_error of Protocol.error_code * string
  | Timed_out of float
  | Transport_failed of string
  | Circuit_open

let failure_to_string = function
  | Protocol_error (code, msg) ->
      Printf.sprintf "%s: %s" (Protocol.error_code_name code) msg
  | Timed_out s -> Printf.sprintf "timed out after %gs" s
  | Transport_failed msg -> "transport failed: " ^ msg
  | Circuit_open -> "circuit breaker open"

type stats = {
  calls : int;
  attempts : int;
  retries : int;
  failures : int;
  breaker_opens : int;
}

type breaker_state = Closed | Open of int (* reopen probe deadline, now_ns *) | Half_open

type t = {
  transport : transport;
  policy : policy;
  diag : Util.Diag.sink option;
  seed : int;  (* also namespaces generated correlation IDs *)
  req_seq : int Atomic.t;
  lock : Mutex.t;
  mutable breaker : breaker_state;
  mutable consecutive_failures : int;
  mutable rng : int64;  (* LCG state for deterministic backoff jitter *)
  n_calls : int Atomic.t;
  n_attempts : int Atomic.t;
  n_retries : int Atomic.t;
  n_failures : int Atomic.t;
  n_breaker_opens : int Atomic.t;
}

let create ?diag ?(policy = default_policy) ?(seed = 1) transport =
  if policy.max_attempts < 1 then invalid_arg "Client.create: max_attempts < 1";
  {
    transport;
    policy;
    diag;
    seed;
    req_seq = Atomic.make 0;
    lock = Mutex.create ();
    breaker = Closed;
    consecutive_failures = 0;
    rng = Int64.of_int (0x9E3779B9 lxor seed);
    n_calls = Atomic.make 0;
    n_attempts = Atomic.make 0;
    n_retries = Atomic.make 0;
    n_failures = Atomic.make 0;
    n_breaker_opens = Atomic.make 0;
  }

let stats t =
  {
    calls = Atomic.get t.n_calls;
    attempts = Atomic.get t.n_attempts;
    retries = Atomic.get t.n_retries;
    failures = Atomic.get t.n_failures;
    breaker_opens = Atomic.get t.n_breaker_opens;
  }

(* deterministic jitter (no wall clock, no global RNG): a 64-bit LCG
   stepped under the client lock; the factor lands in [1-j, 1+j] *)
let jitter_factor t =
  Mutex.protect t.lock (fun () ->
      t.rng <- Int64.add (Int64.mul t.rng 6364136223846793005L) 1442695040888963407L;
      let u = Int64.to_float (Int64.shift_right_logical t.rng 11) /. 9007199254740992.0 in
      1.0 +. (t.policy.jitter *. ((2.0 *. u) -. 1.0)))

let record t severity msg =
  Util.Diag.record ?sink:t.diag severity `Degraded_fallback ~stage:"serve.client" msg

(* retryable: transient conditions another attempt can clear — backpressure,
   an expired deadline, a transport hiccup or timeout. Everything else is
   permanent for this request: bad input stays bad, [internal_error] means
   the server quarantined the request after it crashed workers (retrying
   would crash more), [shutting_down] means the server is going away. *)
let retryable = function
  | Protocol_error ((Protocol.Overloaded | Protocol.Deadline_exceeded), _) -> true
  | Timed_out _ | Transport_failed _ -> true
  | Protocol_error _ | Circuit_open -> false

(* classification also surfaces the reply's echoed correlation ID so
   [call] can pin each reply to the attempt that asked for it *)
let classify reply =
  match Jsonx.parse reply with
  | Error msg -> (None, Error (Transport_failed ("unparseable reply: " ^ msg)))
  | Ok json -> (
      match Protocol.decode_response json with
      | Error msg -> (None, Error (Transport_failed msg))
      | Ok (_id, req_id, Ok payload) -> (req_id, Ok payload)
      | Ok (_id, req_id, Error (code, msg)) -> (req_id, Error (Protocol_error (code, msg))))

(* An echoed correlation ID that contradicts the one we sent means the
   transport delivered someone else's reply (crossed wires, a buggy
   proxy); surface it as a retryable transport failure. A reply {e
   without} an echo stays acceptable — error replies minted before the
   request was decoded (parse errors) and older servers carry none. *)
let verify_echo expect (got, result) =
  match (expect, got) with
  | Some e, Some g when not (String.equal e g) ->
      Error
        (Transport_failed (Printf.sprintf "reply req_id mismatch: sent %S, got %S" e g))
  | _ -> result

(* one attempt: send, then poll for the reply up to the per-attempt
   timeout. Each attempt gets a fresh cell, so a late reply from a timed-out
   attempt lands in an abandoned cell instead of satisfying the retry. *)
let attempt t line =
  let cell = Atomic.make None in
  match t.transport line ~reply:(fun r -> Atomic.set cell (Some r)) with
  | exception e -> (None, Error (Transport_failed (Printexc.to_string e)))
  | () -> (
      let deadline_ns =
        Option.map
          (fun s -> Util.Trace.now_ns () + int_of_float (s *. 1e9))
          t.policy.timeout_s
      in
      let rec await () =
        match Atomic.get cell with
        | Some reply -> classify reply
        | None -> (
            match deadline_ns with
            | Some d when Util.Trace.now_ns () > d ->
                (None, Error (Timed_out (Option.get t.policy.timeout_s)))
            | _ ->
                Thread.delay 0.0005;
                await ())
      in
      await ())

(* breaker transitions run under the client lock *)
let breaker_admit t =
  Mutex.protect t.lock (fun () ->
      match t.breaker with
      | Closed -> true
      | Half_open -> false (* one probe in flight; fail fast *)
      | Open reopen_ns ->
          if Util.Trace.now_ns () >= reopen_ns then begin
            t.breaker <- Half_open;
            true (* this call is the probe *)
          end
          else false)

let breaker_success t =
  Mutex.protect t.lock (fun () ->
      t.consecutive_failures <- 0;
      t.breaker <- Closed)

let breaker_failure t =
  Mutex.protect t.lock (fun () ->
      t.consecutive_failures <- t.consecutive_failures + 1;
      let should_open =
        match t.breaker with
        | Half_open -> true (* the probe failed: reopen *)
        | Closed -> t.consecutive_failures >= t.policy.breaker_threshold
        | Open _ -> false
      in
      if should_open then begin
        t.breaker <-
          Open
            (Util.Trace.now_ns ()
            + int_of_float (t.policy.breaker_cooldown_s *. 1e9));
        Atomic.incr t.n_breaker_opens;
        Some t.consecutive_failures
      end
      else None)

let call ?expect t line =
  Atomic.incr t.n_calls;
  if not (breaker_admit t) then begin
    Atomic.incr t.n_failures;
    Error Circuit_open
  end
  else begin
    let rec go attempt_no backoff =
      Atomic.incr t.n_attempts;
      match verify_echo expect (attempt t line) with
      | Ok payload ->
          breaker_success t;
          Ok payload
      | Error failure ->
          if retryable failure && attempt_no < t.policy.max_attempts then begin
            Atomic.incr t.n_retries;
            record t Util.Diag.Info
              (Printf.sprintf "attempt %d/%d failed (%s) — retrying in %.3gs"
                 attempt_no t.policy.max_attempts (failure_to_string failure)
                 backoff);
            Thread.delay (backoff *. jitter_factor t);
            go (attempt_no + 1)
              (Float.min t.policy.max_backoff_s (backoff *. t.policy.backoff_mult))
          end
          else begin
            Atomic.incr t.n_failures;
            (match breaker_failure t with
            | Some n ->
                record t Util.Diag.Warning
                  (Printf.sprintf
                     "circuit breaker opened after %d consecutive failures (last: %s)"
                     n (failure_to_string failure))
            | None -> ());
            Error failure
          end
    in
    go 1 t.policy.backoff_s
  end

let call_request t request =
  (* every client call carries a correlation ID: the caller's if it set
     one, else a generated [cli-<seed>-<n>]; the echo is verified either
     way, so a crossed-wires reply can never satisfy the wrong call *)
  let request, expect =
    match request.Protocol.req_id with
    | Some r -> (request, r)
    | None ->
        let r =
          Printf.sprintf "cli-%x-%d" t.seed (Atomic.fetch_and_add t.req_seq 1)
        in
        ({ request with Protocol.req_id = Some r }, r)
  in
  call ~expect t (Jsonx.to_string (Protocol.encode_request request))
