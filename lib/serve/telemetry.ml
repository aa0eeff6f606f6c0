module Histogram = Util.Histogram

type stage = Queue_wait | Batch_wait | Cache_lookup | Compute | Reply_write

let stage_name = function
  | Queue_wait -> "queue_wait"
  | Batch_wait -> "batch_wait"
  | Cache_lookup -> "cache_lookup"
  | Compute -> "compute"
  | Reply_write -> "reply_write"

let all_stages = [ Queue_wait; Batch_wait; Cache_lookup; Compute; Reply_write ]

let stage_index = function
  | Queue_wait -> 0
  | Batch_wait -> 1
  | Cache_lookup -> 2
  | Compute -> 3
  | Reply_write -> 4

type slow_entry = {
  seq : int;
  req_id : string;
  method_ : string;
  ok : bool;
  total_ns : int;
  stage_ns : (string * int) list;
}

type t = {
  on : bool Atomic.t;
  slow_ms : float;
  ring_size : int;
  ring : slow_entry option array;  (* circular, guarded by [lock] *)
  lock : Mutex.t;
  mutable seq : int;  (* total qualifying requests ever admitted *)
  stage_hists : Histogram.t array;  (* indexed by [stage_index] *)
  total_hist : Histogram.t;
  mutable log : (Jsonx.t -> unit) option;
}

let create ?(slow_ms = 0.) ?(ring_size = 64) () =
  if ring_size < 1 then invalid_arg "Telemetry.create: ring_size < 1";
  {
    on = Atomic.make true;
    slow_ms;
    ring_size;
    ring = Array.make ring_size None;
    lock = Mutex.create ();
    seq = 0;
    stage_hists = Array.init (List.length all_stages) (fun _ -> Histogram.create ());
    total_hist = Histogram.create ();
    log = None;
  }

let set_enabled t b = Atomic.set t.on b
let enabled t = Atomic.get t.on
let set_log t sink = t.log <- sink

let stage_histogram t stage = t.stage_hists.(stage_index stage)
let total_histogram t = t.total_hist

let ms_of_ns ns = float_of_int ns /. 1e6

let record_request t ~req_id ~method_ ~ok ~stages ~total_ns =
  if Atomic.get t.on then begin
    List.iter
      (fun (stage, ns) -> Histogram.record t.stage_hists.(stage_index stage) ns)
      stages;
    Histogram.record t.total_hist total_ns;
    let stage_ns = List.map (fun (s, ns) -> (stage_name s, max 0 ns)) stages in
    if ms_of_ns total_ns >= t.slow_ms then
      Mutex.protect t.lock (fun () ->
          let seq = t.seq in
          t.seq <- seq + 1;
          t.ring.(seq mod t.ring_size) <-
            Some { seq; req_id; method_; ok; total_ns; stage_ns });
    match t.log with
    | None -> ()
    | Some sink ->
        sink
          (Jsonx.Obj
             ([
                ("req_id", Jsonx.Str req_id);
                ("method", Jsonx.Str method_);
                ("ok", Jsonx.Bool ok);
                ("total_ms", Jsonx.Num (ms_of_ns total_ns));
              ]
             @ List.map (fun (name, ns) -> (name ^ "_ms", Jsonx.Num (ms_of_ns ns))) stage_ns
             ))
  end

(* ---------------------------------------------------------------- *)
(* exposition *)

(* (json key, prometheus quantile label, p) *)
let quantile_points =
  [
    ("p50_ms", "0.5", 0.5);
    ("p90_ms", "0.9", 0.9);
    ("p99_ms", "0.99", 0.99);
    ("p999_ms", "0.999", 0.999);
  ]

let quantiles_payload h =
  let n = Histogram.count h in
  let mean_ms = if n = 0 then 0. else ms_of_ns (Histogram.sum h) /. float_of_int n in
  Jsonx.Obj
    ([ ("count", Jsonx.Num (float_of_int n)) ]
    @ List.map
        (fun (key, _, p) -> (key, Jsonx.Num (ms_of_ns (Histogram.quantile h p))))
        quantile_points
    @ [
        ("max_ms", Jsonx.Num (ms_of_ns (Histogram.max_value h)));
        ("mean_ms", Jsonx.Num mean_ms);
      ])

(* metric names must match [a-zA-Z_:][a-zA-Z0-9_:]* *)
let sanitize name =
  String.map
    (fun ch ->
      match ch with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ch | _ -> '_')
    name

let seconds ns = float_of_int ns /. 1e9

let prometheus_of ~counters named_hists =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let name = "ssta_" ^ sanitize name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v))
    counters;
  Buffer.add_string b "# TYPE ssta_stage_latency_seconds summary\n";
  List.iter
    (fun (stage, h) ->
      List.iter
        (fun (_, label, p) ->
          Buffer.add_string b
            (Printf.sprintf "ssta_stage_latency_seconds{stage=%S,quantile=%S} %.9g\n"
               stage label
               (seconds (Histogram.quantile h p))))
        quantile_points;
      Buffer.add_string b
        (Printf.sprintf "ssta_stage_latency_seconds_sum{stage=%S} %.9g\n" stage
           (seconds (Histogram.sum h)));
      Buffer.add_string b
        (Printf.sprintf "ssta_stage_latency_seconds_count{stage=%S} %d\n" stage
           (Histogram.count h)))
    named_hists;
  Buffer.contents b

let named_hists t =
  List.map (fun s -> (stage_name s, t.stage_hists.(stage_index s))) all_stages
  @ [ ("total", t.total_hist) ]

let metrics_payload t ~counters =
  let named_hists = named_hists t in
  Jsonx.Obj
    [
      ( "counters",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num (float_of_int v))) counters) );
      ("stages", Jsonx.Obj (List.map (fun (s, h) -> (s, quantiles_payload h)) named_hists));
      ("histograms", Jsonx.Obj (List.map (fun (s, h) -> (s, Histogram.to_json h)) named_hists));
      ("prometheus", Jsonx.Str (prometheus_of ~counters named_hists));
    ]

let debug_payload t =
  let entries =
    Mutex.protect t.lock (fun () ->
        let out = ref [] in
        (* oldest-to-newest: walk the circular buffer from the next write slot *)
        for i = 0 to t.ring_size - 1 do
          match t.ring.((t.seq + i) mod t.ring_size) with
          | None -> ()
          | Some e -> out := e :: !out
        done;
        List.sort (fun (a : slow_entry) (b : slow_entry) -> Int.compare a.seq b.seq) !out)
  in
  Jsonx.Obj
    [
      ("slow_ms", Jsonx.Num t.slow_ms);
      ("ring_size", Jsonx.Num (float_of_int t.ring_size));
      ("seen", Jsonx.Num (float_of_int (Mutex.protect t.lock (fun () -> t.seq))));
      ( "slow_requests",
        Jsonx.List
          (List.map
             (fun (e : slow_entry) ->
               Jsonx.Obj
                 [
                   ("seq", Jsonx.Num (float_of_int e.seq));
                   ("req_id", Jsonx.Str e.req_id);
                   ("method", Jsonx.Str e.method_);
                   ("ok", Jsonx.Bool e.ok);
                   ("total_ms", Jsonx.Num (ms_of_ns e.total_ns));
                   ( "stages_ms",
                     Jsonx.Obj
                       (List.map
                          (fun (name, ns) -> (name, Jsonx.Num (ms_of_ns ns)))
                          e.stage_ns) );
                 ])
             entries) );
    ]

let reset t =
  Array.iter Histogram.reset t.stage_hists;
  Histogram.reset t.total_hist;
  Mutex.protect t.lock (fun () ->
      Array.fill t.ring 0 t.ring_size None;
      t.seq <- 0)
