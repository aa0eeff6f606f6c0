(** The [ssta_serve] message schema: requests, responses and typed error
    codes, as {!Jsonx.t} trees.

    This module is the only schema and the only validator. Every message
    travels as one compact JSON line ({!Jsonx.to_string}); the transports
    read a line with {!Jsonx.parse} and hand the result to
    {!request_of_message}. A request:
    {v
    {"id": <any>, "req_id": "<str>"?, "deadline_ms": <num>?,
     "method": "<name>", "params": {...}?}
    v}
    and a response, echoing [id] (and [req_id] when the request had one):
    {v
    {"id": <any>, "req_id": "<str>"?, "ok": {...}}
    {"id": <any>, "req_id": "<str>"?,
     "error": {"code": "<code>", "message": "...", "field": "<key>"?}}
    v}

    Responses may arrive out of request order (requests run concurrently on
    the server's worker pool); clients correlate by [id].

    Integers travel as JSON numbers, i.e. IEEE doubles, so every integer
    field is limited to |v| <= 2{^53}: {!encode_request} raises beyond it,
    and {!decode_request} rejects a larger seed with [Bad_params] and
    [field = "seed"]. *)

type circuit =
  | Named of string  (** a Table 1 circuit generated by {!Circuit.Generator} *)
  | Bench_text of string  (** inline ISCAS-89 [.bench] netlist text *)

type sampler_kind = Cholesky | Kle | Kle_qmc

type retime_edit = { gate : int; kind : string }
(** One-gate kind swap applied before a {!Retime} analysis; [kind] is a
    lowercase logic-kind name accepted by [Hier.Edit.kind_of_string]. *)

type call =
  | Prepare of { circuit : circuit; r : int option }
      (** Build (or load from cache) the circuit setup and, unless
          [sampler] resolves to Cholesky-only use, the KLE models. *)
  | Run_mc of {
      circuit : circuit;
      sampler : sampler_kind;
      r : int option;
      seed : int;
      n : int;
      batch : int option;
      full : bool;
          (** also return per-endpoint mean/sigma arrays *)
    }
  | Compare of { circuit : circuit; r : int option; seed : int; n : int }
      (** Reference Cholesky MC vs. KLE MC, paper accuracy metrics. *)
  | Retime of {
      circuit : circuit;
      r : int option;
      n_blocks : int option;
      edit : retime_edit option;
    }
      (** Single-pass block SSTA of the circuit after the optional
          one-gate [edit], with the cached KLE models. The unedited
          design's flat analysis ({!Ssta.Block_ssta.analyse}) is kept in
          memory as its parent state; an edit re-propagates only its cone
          from it ({!Ssta.Block_ssta.rerun}), and the reply equals a flat
          run of the edited design bit for bit. The reply's
          [gates_recomputed] is the number of gates whose forms the answer
          computed: every gate without an edit, the cone with one.
          [n_blocks] is validated ([>= 1]) and otherwise ignored, so the
          reply's [n_blocks], [blocks_reused] and [blocks_recomputed]
          always read 1, 0 and 1. *)
  | Stats  (** server counters + cache and store statistics *)
  | Metrics
      (** telemetry snapshot: per-stage latency histograms + unified
          counters, as JSON and Prometheus text exposition *)
  | Debug
      (** slow-request ring buffer dump: the last N requests over the
          server's [--slow-ms] threshold, with per-stage breakdown *)
  | Health
      (** liveness/recovery probe: workers alive and restarted, queue
          depth, cache tiers, store status — cheap enough to poll *)
  | Shutdown  (** reply, then drain the server *)

type request = {
  id : Jsonx.t;
  req_id : string option;
      (** end-to-end request correlation ID (["req_id"] on the wire).
          Optional for compatibility: when absent the server generates one
          at ingress for telemetry/logs but does {e not} echo it, so replies
          to old clients are byte-identical to before. When present it is
          echoed top-level in the response and threaded through trace
          spans. *)
  deadline_ms : float option;
  call : call;
}

type error_code =
  | Parse_error  (** the line is not valid JSON *)
  | Invalid_request  (** valid JSON, but not a request object *)
  | Unknown_method
  | Bad_params  (** missing/ill-typed/out-of-range parameters *)
  | Netlist_error  (** circuit resolution failed (bench parse, unknown name) *)
  | Overloaded  (** bounded queue full — backpressure, retry later *)
  | Deadline_exceeded  (** [deadline_ms] elapsed before execution *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Internal_error

val error_code_name : error_code -> string
(** Stable wire name, e.g. ["overloaded"]. *)

val error_code_of_name : string -> error_code option
(** Inverse of {!error_code_name}. *)

val decode_request : Jsonx.t -> (request, Jsonx.t) result
(** Validate one request tree: the request, or the error response to send
    back. The reject echoes the request's [id] when the tree has one, and
    its [req_id] whenever that is valid (it is checked before anything
    else can fail). Unknown [params] keys (per-method whitelist, including
    the [circuit] and [edit] sub-objects) are rejected with [Bad_params]
    and the offending key in the error's [field]. *)

val encode_request : request -> Jsonx.t
(** [decode_request (encode_request r)] returns [Ok r]. Raises
    [Invalid_argument] when an integer field lies outside |v| <= 2{^53},
    rather than emit a request the peer would read differently. *)

val ok_response : id:Jsonx.t -> ?req_id:string -> Jsonx.t -> Jsonx.t
(** [?req_id] echoes the request's correlation ID top-level; omitted for
    requests that did not carry one (wire compatibility). *)

val error_response :
  id:Jsonx.t -> ?req_id:string -> ?field:string -> error_code -> string -> Jsonx.t
(** [?field] names the offending params key inside the error object. *)

val request_of_message : (Jsonx.t, string) result -> (request, Jsonx.t) result
(** Validate what {!Jsonx.parse} read from one request line: the request,
    or the error response to send back — [parse_error] with id [null] when
    the line was not JSON, else {!decode_request}'s reject. *)

val decode_response :
  Jsonx.t ->
  (Jsonx.t * string option * (Jsonx.t, error_code * string) result, string) result
(** [(id, echoed req_id, Ok payload | Error (code, message))]; an unknown
    code name reads as [Internal_error]. [Error] when the tree has neither
    an [ok] nor an [error] member. *)
