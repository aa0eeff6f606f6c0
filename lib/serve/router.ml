type backend = {
  send :
    Protocol.request ->
    reply:((Jsonx.t, Protocol.error_code * string) result -> unit) ->
    unit;
  healthy : unit -> bool;
  describe : string;
}

let backend_of_server ?(describe = "in-process") server =
  let send request ~reply =
    (* round-trip through the binary wire so the in-process router path
       exercises exactly what a cross-process deployment ships *)
    match Wire.unframe (Wire.encode `Binary (Protocol.encode_request request)) with
    | Error (`Eof | `Corrupt _) ->
        reply (Error (Protocol.Internal_error, "request frame self-decode failed"))
    | Ok payload ->
        Server.submit_wire server ~wire:`Binary payload ~reply:(fun frame ->
            match
              match Wire.unframe frame with
              | Error `Eof -> Error "empty shard reply"
              | Error (`Corrupt msg) -> Error msg
              | Ok body -> Result.bind (Wire.decode `Binary body) Protocol.decode_response
            with
            | Error msg -> reply (Error (Protocol.Internal_error, msg))
            | Ok (_id, _req_id, result) -> reply result)
  in
  { send; healthy = (fun () -> not (Server.shutdown_requested server)); describe }

type config = { vnodes : int; max_inflight_per_shard : int; replicas : int }

let default_config = { vnodes = 64; max_inflight_per_shard = 32; replicas = 2 }

type stats = { forwarded : int; shed : int; retried : int; shard_errors : int }

type shard = { backend : backend; inflight : int Atomic.t }

type t = {
  config : config;
  shards : shard array;
  ring : (int64 * int) array;  (* (vnode hash, shard index), hash-sorted *)
  shutdown_flag : bool Atomic.t;
  n_forwarded : int Atomic.t;
  n_shed : int Atomic.t;
  n_retried : int Atomic.t;
  n_shard_errors : int Atomic.t;
}

(* The ring hashes stable vnode labels (shard index, not pid or socket
   path), so the key->shard assignment survives shard restarts. *)
let build_ring ~vnodes n_shards =
  let ring =
    Array.init (n_shards * vnodes) (fun i ->
        let shard = i / vnodes and vnode = i mod vnodes in
        (Persist.Codec.fnv64 (Printf.sprintf "shard-%d#vnode-%d" shard vnode), shard))
  in
  Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) ring;
  ring

let create ?(config = default_config) backends =
  if List.length backends = 0 then invalid_arg "Router.create: no backends";
  if config.vnodes < 1 then invalid_arg "Router.create: vnodes < 1";
  if config.replicas < 1 then invalid_arg "Router.create: replicas < 1";
  let shards =
    Array.of_list (List.map (fun backend -> { backend; inflight = Atomic.make 0 }) backends)
  in
  {
    config;
    shards;
    ring = build_ring ~vnodes:config.vnodes (Array.length shards);
    shutdown_flag = Atomic.make false;
    n_forwarded = Atomic.make 0;
    n_shed = Atomic.make 0;
    n_retried = Atomic.make 0;
    n_shard_errors = Atomic.make 0;
  }

let routing_key (request : Protocol.request) =
  let circuit_token = function
    | Protocol.Named name -> "name:" ^ name
    | Protocol.Bench_text text -> "bench:" ^ Persist.Codec.fnv64_hex text
  in
  let key circuit r =
    Some
      (Printf.sprintf "%s;r=%s" (circuit_token circuit)
         (match r with None -> "auto" | Some r -> string_of_int r))
  in
  match request.Protocol.call with
  | Protocol.Prepare { circuit; r } -> key circuit r
  | Protocol.Run_mc { circuit; r; _ } -> key circuit r
  | Protocol.Compare { circuit; r; _ } -> key circuit r
  (* retime shares prepare/run_mc's key shape so a circuit's macros and
     models warm the same shard's store *)
  | Protocol.Retime { circuit; r; _ } -> key circuit r
  | Protocol.Stats | Protocol.Health | Protocol.Metrics | Protocol.Debug
  | Protocol.Shutdown ->
      None

(* first ring slot with hash >= h (unsigned), wrapping to slot 0 *)
let ring_position t h =
  let ring = t.ring in
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst ring.(mid)) h < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo >= n then 0 else !lo

let shard_of t key = snd t.ring.(ring_position t (Persist.Codec.fnv64 key))

(* the replica candidate list: walk the ring from the key's position,
   collecting the first [replicas] distinct shards *)
let candidates t key =
  let start = ring_position t (Persist.Codec.fnv64 key) in
  let n = Array.length t.ring in
  let want = min t.config.replicas (Array.length t.shards) in
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  let i = ref 0 in
  while List.length !out < want && !i < n do
    let shard = snd t.ring.((start + !i) mod n) in
    if not (Hashtbl.mem seen shard) then begin
      Hashtbl.add seen shard ();
      out := shard :: !out
    end;
    incr i
  done;
  List.rev !out

(* ---------------------------------------------------------------- *)
(* aggregation (stats/health/shutdown fan out to every shard) *)

let fanout t call =
  let n = Array.length t.shards in
  let results = Array.make n None in
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let remaining = ref n in
  Array.iteri
    (fun i shard ->
      let deliver r =
        Mutex.protect lock (fun () ->
            match results.(i) with
            | Some _ -> ()  (* a misbehaving backend double-reply is dropped *)
            | None ->
                results.(i) <- Some r;
                decr remaining;
                Condition.signal done_)
      in
      let request =
        { Protocol.id = Jsonx.Num (float_of_int i); req_id = None; deadline_ms = None; call }
      in
      match shard.backend.send request ~reply:deliver with
      | () -> ()
      | exception e -> deliver (Error (Protocol.Internal_error, Printexc.to_string e)))
    t.shards;
  Mutex.protect lock (fun () ->
      while !remaining > 0 do
        Condition.wait done_ lock
      done);
  Array.map (function Some r -> r | None -> Error (Protocol.Internal_error, "no reply")) results

let router_stats_payload t =
  Jsonx.Obj
    [
      ("forwarded", Jsonx.Num (float_of_int (Atomic.get t.n_forwarded)));
      ("shed", Jsonx.Num (float_of_int (Atomic.get t.n_shed)));
      ("retried", Jsonx.Num (float_of_int (Atomic.get t.n_retried)));
      ("shard_errors", Jsonx.Num (float_of_int (Atomic.get t.n_shard_errors)));
    ]

let shard_result_payload = function
  | Ok payload -> payload
  | Error (code, msg) ->
      Jsonx.Obj
        [
          ("error", Jsonx.Str (Protocol.error_code_name code)); ("message", Jsonx.Str msg);
        ]

let aggregate t call =
  let results = fanout t call in
  let shard_list =
    Jsonx.List (Array.to_list (Array.map shard_result_payload results))
  in
  match call with
  | Protocol.Health ->
      let shard_healthy = function
        | Ok payload -> (
            match Option.bind (Jsonx.member "healthy" payload) Jsonx.as_bool with
            | Some b -> b
            | None -> false)
        | Error _ -> false
      in
      let all_healthy = Array.for_all shard_healthy results in
      Jsonx.Obj
        [
          ("healthy", Jsonx.Bool (all_healthy && not (Atomic.get t.shutdown_flag)));
          ("shards", Jsonx.Num (float_of_int (Array.length t.shards)));
          ("router", router_stats_payload t);
          ("shard_health", shard_list);
        ]
  | _ ->
      let list_name =
        match call with Protocol.Debug -> "shard_debug" | _ -> "shard_stats"
      in
      Jsonx.Obj
        [
          ("shards", Jsonx.Num (float_of_int (Array.length t.shards)));
          ("router", router_stats_payload t);
          (list_name, shard_list);
        ]

(* ---------------------------------------------------------------- *)
(* submission *)

let submit t ~wire payload ~reply =
  match Protocol.request_of_message (Wire.decode wire payload) with
  | Error response -> reply (Wire.encode wire response)
  | Ok request -> (
      let id = request.Protocol.id in
      let req_id = request.Protocol.req_id in
      let replied = Atomic.make false in
      let respond result =
        if not (Atomic.exchange replied true) then
          reply
            (Wire.encode wire
               (match result with
               | Ok payload -> Protocol.ok_response ~id ?req_id payload
               | Error (code, msg) -> Protocol.error_response ~id ?req_id code msg))
      in
      match routing_key request with
      | None -> (
          match request.Protocol.call with
          | Protocol.Shutdown ->
              Atomic.set t.shutdown_flag true;
              let _ = fanout t Protocol.Shutdown in
              respond (Ok (Jsonx.Obj [ ("shutting_down", Jsonx.Bool true) ]))
          | Protocol.Metrics ->
              (* the cluster view: every shard's registry merged into one —
                 counters summed, histograms merged bucket-by-bucket under
                 the shared fixed layout, quantiles and the Prometheus text
                 recomputed from the merged buckets *)
              let results = fanout t Protocol.Metrics in
              let payloads =
                Array.to_list results
                |> List.filter_map (function Ok p -> Some p | Error _ -> None)
              in
              let merged_fields =
                match Telemetry.merge_metrics payloads with Jsonx.Obj f -> f | _ -> []
              in
              respond
                (Ok
                   (Jsonx.Obj
                      ([
                         ("shards", Jsonx.Num (float_of_int (Array.length t.shards)));
                         ( "shards_reporting",
                           Jsonx.Num (float_of_int (List.length payloads)) );
                         ("router", router_stats_payload t);
                       ]
                      @ merged_fields)))
          | (Protocol.Stats | Protocol.Health | Protocol.Debug) as call ->
              respond (Ok (aggregate t call))
          | _ -> respond (Error (Protocol.Internal_error, "unroutable request")))
      | Some key ->
          if Atomic.get t.shutdown_flag then
            respond (Error (Protocol.Shutting_down, "router is draining"))
          else begin
            let rec try_candidates tried = function
              | [] ->
                  Atomic.incr t.n_shard_errors;
                  respond
                    (Error
                       ( Protocol.Internal_error,
                         Printf.sprintf "no healthy shard for key (tried %d)" tried ))
              | idx :: rest ->
                  let shard = t.shards.(idx) in
                  if not (shard.backend.healthy ()) then begin
                    Atomic.incr t.n_retried;
                    try_candidates (tried + 1) rest
                  end
                  else if Atomic.get shard.inflight >= t.config.max_inflight_per_shard then begin
                    (* shed, don't spread: spilling a hot key onto other
                       shards would duplicate its artifacts on every cache *)
                    Atomic.incr t.n_shed;
                    respond
                      (Error
                         ( Protocol.Overloaded,
                           Printf.sprintf "shard %s at capacity (%d in flight)"
                             shard.backend.describe
                             t.config.max_inflight_per_shard ))
                  end
                  else begin
                    Atomic.incr shard.inflight;
                    match
                      shard.backend.send request ~reply:(fun result ->
                          Atomic.decr shard.inflight;
                          respond result)
                    with
                    | () -> Atomic.incr t.n_forwarded
                    | exception e ->
                        Atomic.decr shard.inflight;
                        Atomic.incr t.n_shard_errors;
                        Atomic.incr t.n_retried;
                        ignore (Printexc.to_string e);
                        try_candidates (tried + 1) rest
                  end
            in
            try_candidates 0 (candidates t key)
          end)

let shutdown_requested t = Atomic.get t.shutdown_flag

let stats t =
  {
    forwarded = Atomic.get t.n_forwarded;
    shed = Atomic.get t.n_shed;
    retried = Atomic.get t.n_retried;
    shard_errors = Atomic.get t.n_shard_errors;
  }
