type config = {
  requests : int;
  workers : int;
  mc_samples : int;
  max_area_fraction : float;
  crash_period : int;
  crash_limit : int;
  read_error_period : int;
  short_read_period : int;
  torn_write_period : int;
  latency_period : int;
  latency_ms : float;
  client_timeout_s : float;
  recovery_probes : int;
}

let default_config =
  {
    requests = 120;
    workers = 2;
    mc_samples = 32;
    max_area_fraction = 0.05;
    crash_period = 15;
    crash_limit = 6;
    read_error_period = 6;
    short_read_period = 9;
    torn_write_period = 3;
    latency_period = 4;
    latency_ms = 0.2;
    client_timeout_s = 30.0;
    recovery_probes = 250;
  }

type fault_count = { fault : string; fired : int }

type report = {
  requests : int;
  ok : int;
  checked : int;
  wrong_results : int;
  typed_errors : int;
  transport_failures : int;
  id_violations : int;
  faults_injected : int;
  fault_counts : fault_count list;
  worker_restarts : int;
  quarantined : int;
  recovered : bool;
  client : Client.stats;
}

let report_to_string r =
  Printf.sprintf
    "%d requests: %d ok (%d checked, %d wrong), %d typed errors, %d transport \
     failures, %d req_id violations; %d faults injected (%s); %d worker \
     restarts, %d quarantined; recovered=%b; client: %d attempts, %d retries, \
     %d breaker opens"
    r.requests r.ok r.checked r.wrong_results r.typed_errors r.transport_failures
    r.id_violations r.faults_injected
    (String.concat ", "
       (List.map (fun f -> Printf.sprintf "%s=%d" f.fault f.fired) r.fault_counts))
    r.worker_restarts r.quarantined r.recovered r.client.Client.attempts
    r.client.Client.retries r.client.Client.breaker_opens

(* the invariants the harness exists to assert; CI and dune runtest fail on
   any violation *)
let violations ?(min_faults = 50) r =
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      (r.wrong_results > 0, Printf.sprintf "%d wrong results (must be 0)" r.wrong_results);
      ( r.transport_failures > 0,
        Printf.sprintf "%d failures were not typed errors" r.transport_failures );
      ( r.faults_injected < min_faults,
        Printf.sprintf "only %d faults injected (want >= %d)" r.faults_injected min_faults );
      (not r.recovered, "server did not recover to healthy");
      ( r.typed_errors > r.requests / 4,
        Printf.sprintf "typed-error rate too high: %d/%d" r.typed_errors r.requests );
      ( r.id_violations > 0,
        Printf.sprintf
          "%d replies did not echo their request ID exactly once (must be 0)"
          r.id_violations );
    ]

(* ---------------------------------------------------------------- *)

let tiny_bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NAND(a, b)\ny = NOT(x)\n"

(* every chaos request carries a correlation ID so the harness can assert
   end-to-end propagation — including through retries *)
let chaos_req_id id = "chaos-" ^ string_of_int id

let run_mc_line ~id ~sampler ~n ~seed =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", Jsonx.Num (float_of_int id));
         ("req_id", Jsonx.Str (chaos_req_id id));
         ("method", Jsonx.Str "run_mc");
         ( "params",
           Jsonx.Obj
             [
               ("circuit", Jsonx.Obj [ ("bench", Jsonx.Str tiny_bench) ]);
               ("sampler", Jsonx.Str sampler);
               ("n", Jsonx.Num (float_of_int n));
               ("seed", Jsonx.Num (float_of_int seed));
             ] );
       ])

let prepare_line ~id =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", Jsonx.Num (float_of_int id));
         ("req_id", Jsonx.Str (chaos_req_id id));
         ("method", Jsonx.Str "prepare");
         ("params", Jsonx.Obj [ ("circuit", Jsonx.Obj [ ("bench", Jsonx.Str tiny_bench) ]) ]);
       ])

let health_line ~id =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", Jsonx.Num (float_of_int id));
         ("req_id", Jsonx.Str (chaos_req_id id));
         ("method", Jsonx.Str "health");
       ])

(* the request mix: three distinct MC workloads whose results are checked
   bit-for-bit against the fault-free baseline, plus prepare and health
   traffic. The MC requests are the "zero wrong results" witnesses: any
   fault that silently corrupted a cached artifact would shift their
   statistics. *)
let request_kinds cfg =
  [|
    ("mc-kle", (fun id -> run_mc_line ~id ~sampler:"kle" ~n:cfg.mc_samples ~seed:7), true);
    ("prepare", (fun id -> prepare_line ~id), false);
    ("mc-qmc", (fun id -> run_mc_line ~id ~sampler:"kle-qmc" ~n:cfg.mc_samples ~seed:7), true);
    ("health", (fun id -> health_line ~id), false);
    ("mc-kle-b", (fun id -> run_mc_line ~id ~sampler:"kle" ~n:(cfg.mc_samples / 2) ~seed:11), true);
  |]

let mc_bits payload =
  match
    ( Option.bind (Jsonx.member "worst_mean" payload) Jsonx.as_num,
      Option.bind (Jsonx.member "worst_sigma" payload) Jsonx.as_num )
  with
  | Some m, Some s -> Some (Int64.bits_of_float m, Int64.bits_of_float s)
  | _ -> None

let server_config ?(store_dir = None) cfg =
  {
    Server.default_config with
    Server.store_dir;
    (* a 1-entry memory LRU forces every model back through the disk tier
       (the setup in between evicts it), maximising the I/O fault surface *)
    cache_entries = 1;
    workers = cfg.workers;
    kle =
      {
        Ssta.Algorithm2.paper_config with
        Ssta.Algorithm2.max_area_fraction = cfg.max_area_fraction;
      };
  }

let health_ok payload =
  let b key = Option.bind (Jsonx.member key payload) Jsonx.as_bool in
  let n key = Option.bind (Jsonx.member key payload) Jsonx.as_num in
  (* the probe itself occupies one worker while it is being answered *)
  b "healthy" = Some true
  && n "queue_depth" = Some 0.0
  && match n "workers_busy" with Some busy -> busy <= 1.0 | None -> false

let count_occurrences ~needle hay =
  let n = String.length needle in
  if n = 0 then 0
  else begin
    let acc = ref 0 in
    let i = ref 0 in
    let limit = String.length hay - n in
    while !i <= limit do
      (match String.index_from_opt hay !i needle.[0] with
      | Some j when j <= limit ->
          if String.equal (String.sub hay j n) needle then incr acc;
          i := j + 1
      | Some _ | None -> i := limit + 1);
      ()
    done;
    !acc
  end

let run ?diag ?(log = fun _ -> ()) ~store_dir cfg =
  let diag = match diag with Some d -> d | None -> Util.Diag.create () in
  let kinds = request_kinds cfg in
  (* ---- phase 1: fault-free baseline on a clean single-worker server *)
  log "chaos: computing fault-free baseline";
  let baseline =
    let server =
      Server.create ~diag { (server_config cfg) with Server.workers = 1 }
    in
    Fun.protect
      ~finally:(fun () -> Server.drain server)
      (fun () ->
        let client = Client.create ~diag (Server.submit server) in
        Array.to_list kinds
        |> List.filter_map (fun (name, make, checked) ->
               if not checked then None
               else
                 match Client.call client (make 0) with
                 | Ok payload -> Option.map (fun bits -> (name, bits)) (mc_bits payload)
                 | Error f ->
                     invalid_arg
                       (Printf.sprintf "chaos baseline failed for %s: %s" name
                          (Client.failure_to_string f))))
  in
  (* ---- phase 2: the same mix against a fault-injected server *)
  let plans =
    [
      ("read-error", Util.Fault.io_plan ~period:cfg.read_error_period Util.Fault.Read_error);
      ("short-read", Util.Fault.io_plan ~period:cfg.short_read_period Util.Fault.Short_read);
      ("torn-write", Util.Fault.io_plan ~period:cfg.torn_write_period Util.Fault.Torn_write);
      ( "latency",
        Util.Fault.io_plan ~period:cfg.latency_period (Util.Fault.Latency cfg.latency_ms) );
    ]
  in
  let crash_plan =
    Util.Fault.io_plan ~first:1 ~period:cfg.crash_period ~limit:cfg.crash_limit
      Util.Fault.Crash
  in
  let server =
    Server.create ~diag
      {
        (server_config ~store_dir:(Some store_dir) cfg) with
        Server.store_io_faults = List.map snd plans;
        chaos_crash = Some crash_plan;
      }
  in
  (* the propagation assertion: every reply — including replies to retried
     sends — must echo the originating request's [req_id] exactly once. The
     substring count catches duplicated fields that a JSON parser would
     silently collapse. *)
  let id_violations = Atomic.make 0 in
  let sent_req_id line =
    match Jsonx.parse line with
    | Ok json -> Option.bind (Jsonx.member "req_id" json) Jsonx.as_str
    | Error _ -> None
  in
  let check_echo ~want reply =
    let echoed =
      match Jsonx.parse reply with
      | Ok json -> Option.bind (Jsonx.member "req_id" json) Jsonx.as_str
      | Error _ -> None
    in
    let count = count_occurrences ~needle:"\"req_id\"" reply in
    if count <> 1 || not (Option.equal String.equal echoed (Some want)) then begin
      Atomic.incr id_violations;
      log
        (Printf.sprintf
           "chaos: req_id VIOLATION (want %s, %d occurrence(s)) in reply %s" want
           count reply)
    end
  in
  let transport line ~reply =
    match sent_req_id line with
    | None -> Server.submit server line ~reply
    | Some want ->
        Server.submit server line ~reply:(fun r ->
            check_echo ~want r;
            reply r)
  in
  let client =
    Client.create ~diag
      ~policy:
        {
          Client.default_policy with
          Client.timeout_s = Some cfg.client_timeout_s;
          max_attempts = 4;
          backoff_s = 0.005;
          max_backoff_s = 0.1;
          (* quarantined requests answer non-retryable internal_error by
             design; don't let them trip the breaker and poison the
             healthy requests that follow *)
          breaker_threshold = max_int;
        }
      transport
  in
  let ok = ref 0 and checked = ref 0 and wrong = ref 0 in
  let typed = ref 0 and transport = ref 0 in
  for i = 0 to cfg.requests - 1 do
    let name, make, check = kinds.(i mod Array.length kinds) in
    (match Client.call client (make i) with
    | Ok payload ->
        incr ok;
        if check then begin
          incr checked;
          match (mc_bits payload, List.assoc_opt name baseline) with
          | Some got, Some want when got = want -> ()
          | Some _, Some _ | None, Some _ ->
              incr wrong;
              log (Printf.sprintf "chaos: WRONG RESULT for %s (request %d)" name i)
          | _, None -> ()
        end
    | Error (Client.Protocol_error _) -> incr typed
    | Error (Client.Timed_out _ | Client.Transport_failed _ | Client.Circuit_open) ->
        incr transport);
    if (i + 1) mod 20 = 0 then
      log (Printf.sprintf "chaos: %d/%d requests (%d ok, %d typed errors)" (i + 1)
             cfg.requests !ok !typed)
  done;
  (* ---- phase 3: recovery probe — a healthy answer means workers alive,
     queue empty, nothing stuck *)
  let recovered = ref false in
  let probes = ref 0 in
  while (not !recovered) && !probes < cfg.recovery_probes do
    incr probes;
    (match Client.call client (health_line ~id:(cfg.requests + !probes)) with
    | Ok payload when health_ok payload -> recovered := true
    | Ok _ | Error _ -> Thread.delay 0.02);
  done;
  log (Printf.sprintf "chaos: recovery probe %s after %d probe(s)"
         (if !recovered then "healthy" else "NOT healthy") !probes);
  let worker_restarts = Server.worker_restarts server in
  let quarantined = Server.quarantined server in
  Server.drain server;
  let fault_counts =
    List.map (fun (name, plan) -> { fault = name; fired = Util.Fault.fired plan }) plans
    @ [ { fault = "crash"; fired = Util.Fault.fired crash_plan } ]
  in
  {
    requests = cfg.requests;
    ok = !ok;
    checked = !checked;
    wrong_results = !wrong;
    typed_errors = !typed;
    transport_failures = !transport;
    id_violations = Atomic.get id_violations;
    faults_injected = List.fold_left (fun acc f -> acc + f.fired) 0 fault_counts;
    fault_counts;
    worker_restarts;
    quarantined;
    recovered = !recovered;
    client = Client.stats client;
  }
