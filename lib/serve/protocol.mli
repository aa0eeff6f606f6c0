(** The [ssta_serve] JSON-lines protocol: request decoding, response
    encoding, typed error codes.

    One request per line:
    {v
    {"id": <any>, "method": "<name>", "deadline_ms": <num>?, "params": {...}?}
    v}
    and one response per line, echoing [id]:
    {v
    {"id": <any>, "ok": {...}}
    {"id": <any>, "error": {"code": "<code>", "message": "..."}}
    v}

    Responses may arrive out of request order (requests run concurrently on
    the server's worker pool); clients correlate by [id]. *)

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
          (** also return per-endpoint mean/sigma arrays — the payload-heavy
              shape the binary wire exists for *)
    }
  | Compare of { circuit : circuit; r : int option; seed : int; n : int }
      (** Reference Cholesky MC vs. KLE MC, paper accuracy metrics. *)
  | Retime of {
      circuit : circuit;
      r : int option;
      n_blocks : int option;
      edit : retime_edit option;
    }
      (** Incremental hierarchical SSTA: partition into [n_blocks] blocks,
          recombine cached block macro-models and recompute only the blocks
          the optional [edit] dirtied. The response reports per-request
          [blocks_reused]/[blocks_recomputed] counters. *)
  | Stats  (** server counters + cache and store statistics *)
  | Metrics
      (** telemetry snapshot: per-stage latency histograms + unified
          counters, as JSON and Prometheus text exposition; a router merges
          every shard's histograms into one cluster view *)
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
          echoed top-level in the response and threaded through router
          and trace spans. *)
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

type reject = {
  reject_id : Jsonx.t;
      (** best-effort request [id] ([Null] when the line was not parseable
          JSON) so the error response can still be correlated *)
  reject_req_id : string option;
      (** the request's [req_id] when it could be recovered — parsed before
          any other validation, so even a bad-params reject echoes it *)
  code : error_code;
  message : string;
  field : string option;
      (** the offending params key, when the reject is attributable to one
          (e.g. a semantically unknown key); surfaces as ["field"] in the
          JSON error object *)
}

val decode : string -> (request, reject) result
(** Decode one request line. Unknown [params] keys (per-method whitelist,
    including the [circuit] and [edit] sub-objects) are rejected with
    [Bad_params] and the offending key in [field]. *)

val encode_request : request -> string
(** Encode a structured request as one JSON line; [decode (encode_request r)]
    returns [Ok r]. Lets clients build requests once and pick the wire
    ({!Wire} reuses the same [request] type for binary framing). *)

val ok_response : id:Jsonx.t -> ?req_id:string -> Jsonx.t -> string
(** [?req_id] echoes the request's correlation ID top-level; omitted for
    requests that did not carry one (wire compatibility). *)

val error_response : id:Jsonx.t -> ?req_id:string -> ?field:string -> error_code -> string -> string
(** [?field] names the offending params key inside the error object (set
    from {!reject.field} for decode rejects). *)

val response_id : string -> Jsonx.t option
(** Parse a response line's [id] (client-side correlation helper). *)

val response_req_id : string -> string option
(** Parse a response line's echoed [req_id], if any. *)
