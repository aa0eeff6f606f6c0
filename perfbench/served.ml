(* serve-retime: an in-process [Serve.Server] with its default
   configuration (2 worker domains, [jobs] 1) and a fresh temporary store,
   driven through [Serve.Server.submit] (the JSON wire) by a closed loop
   of one client thread without retries. One op is a [retime] of c880 with
   one NAND2<->NOR2 swap. *)

open Common
module J = Serve.Jsonx
module P = Serve.Protocol

(* One client keeps one worker busy. With two, both workers computed at
   once on a 2-vCPU box, and one competing busy thread made an op 2.6x
   slower, against 1.18x with one client. *)
let clients = 1
let c880 = P.Named "c880"

type harness = {
  server : Serve.Server.t;
  client : Serve.Client.t;
  store_dir : string;
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------------------------------------------------------------- *)
(* client-side op spans. [Util.Trace] keeps one span stack per domain, and
   the client threads share the main domain, so their spans are kept here
   and merged into the Chrome trace at the end; each carries the req_id
   that the server's own [serve.request] span also carries. *)

let client_spans : (string * int * int * int) list ref = ref []
let client_spans_lock = Mutex.create ()

let record_client_span ~req_id ~client ~start_ns ~end_ns =
  if Util.Trace.enabled () then
    Mutex.protect client_spans_lock (fun () ->
        client_spans := (req_id, client, start_ns, end_ns) :: !client_spans)

(* [epoch_ns] is when the trace's first event (the setup span) opened:
   the Chrome exporter writes timestamps relative to it *)
let merge_client_spans ~epoch_ns path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.parse text with
  | Error e -> pf "# could not re-read %s: %s\n" path e
  | Ok doc ->
      let us ns = J.Num (float_of_int (ns - epoch_ns) /. 1e3) in
      let events =
        List.map
          (fun (req_id, client, s, e) ->
            J.Obj
              [
                ("name", J.Str "bench.op"); ("cat", J.Str "client"); ("ph", J.Str "X");
                ("ts", us s); ("dur", J.Num (float_of_int (e - s) /. 1e3)); ("pid", J.Num 0.0);
                ("tid", J.Num (float_of_int (1000 + client)));
                ("args", J.Obj [ ("req_id", J.Str req_id) ]);
              ])
          (List.rev !client_spans)
      in
      let names =
        List.init clients (fun c ->
            J.Obj
              [
                ("name", J.Str "thread_name"); ("ph", J.Str "M"); ("pid", J.Num 0.0);
                ("tid", J.Num (float_of_int (1000 + c)));
                ("args", J.Obj [ ("name", J.Str (Printf.sprintf "client-%d" c)) ]);
              ])
      in
      let merged =
        match doc with
        | J.Obj fields ->
            J.Obj
              (List.map
                 (function
                   | "traceEvents", J.List evs -> ("traceEvents", J.List (evs @ names @ events))
                   | kv -> kv)
                 fields)
        | other -> other
      in
      Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string merged))

(* ---------------------------------------------------------------- *)
(* server lifecycle and calls *)

let request ~id ~req_id call =
  { P.id = J.Num (float_of_int id); req_id = Some req_id; deadline_ms = None; call }

let call h ~id ~req_id c = Serve.Client.call_request h.client (request ~id ~req_id c)

let must_ok what = function
  | Ok payload -> payload
  | Error f -> failwith (Printf.sprintf "%s failed: %s" what (Serve.Client.failure_to_string f))

let start settings =
  let store_dir = Filename.temp_dir "perfbench-store" "" in
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.store_dir = Some store_dir;
      kle = kle_config settings;
    }
  in
  let server = Serve.Server.create config in
  let client =
    Serve.Client.create
      ~policy:
        { Serve.Client.default_policy with Serve.Client.max_attempts = 1; timeout_s = Some 170.0 }
      (Serve.Server.submit server)
  in
  { server; client; store_dir }


let stop h =
  Serve.Server.drain h.server;
  rm_rf h.store_dir

(* A closed loop: [clients] threads each take the next op index until [n]
   ops have run. [f i] performs op [i] and reports success. *)
let closed_loop ~n f =
  let next = Atomic.make 0 and failed = Atomic.make 0 in
  let op_ms = Array.make n nan in
  let client c () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let start_ns = Util.Trace.now_ns () in
        let ok =
          try f ~client:c i
          with e ->
            pf "# op %d raised %s\n%!" i (Printexc.to_string e);
            false
        in
        let end_ns = Util.Trace.now_ns () in
        op_ms.(i) <- float_of_int (end_ns - start_ns) /. 1e6;
        if not ok then Atomic.incr failed;
        loop ()
      end
    in
    loop ()
  in
  let (), wall_s =
    time (fun () -> List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ())))
  in
  { op_ms; wall_s; failed = Atomic.get failed; peak_rss_mb = peak_rss_mb () }

(* ---------------------------------------------------------------- *)
(* per-layer metrics read from the server *)

let stats_num h path =
  let rec go j = function
    | [] -> J.as_num j
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0.0 (go (Serve.Server.stats_payload h.server) path)

let stats_counters = [
  ("serve.cache_hits_mem", [ "cache_hits_mem" ]);
  ("serve.cache_hits_disk", [ "cache_hits_disk" ]);
  ("serve.cache_misses", [ "cache_misses" ]);
  ("persist.store_hits", [ "store"; "hits" ]);
  ("persist.store_misses", [ "store"; "misses" ]);
  ("persist.store_writes", [ "store"; "writes" ]);
]

let stats_snapshot h = List.map (fun (name, path) -> (name, stats_num h path)) stats_counters

(* server-side stage quantiles of the last pass (telemetry is reset before
   each pass), and the mean client-observed latency minus the server's mean
   total: a difference of medians would drown in the histograms' ~3 %
   bucket width, while their sums are exact *)
let telemetry_metrics h (p : pass) =
  let tel = Serve.Server.telemetry h.server in
  let q hist p = float_of_int (Util.Histogram.quantile hist p) /. 1e6 in
  let mean_ms hist =
    float_of_int (Util.Histogram.sum hist) /. float_of_int (max 1 (Util.Histogram.count hist)) /. 1e6
  in
  let stage s = Serve.Telemetry.stage_histogram tel s in
  [
    metric "serve.queue_wait_p50_ms" "ms" (q (stage Serve.Telemetry.Queue_wait) 0.5);
    metric "serve.queue_wait_p99_ms" "ms" (q (stage Serve.Telemetry.Queue_wait) 0.99);
    metric "serve.batch_wait_p50_ms" "ms" (q (stage Serve.Telemetry.Batch_wait) 0.5);
    metric "serve.cache_lookup_p50_ms" "ms" (q (stage Serve.Telemetry.Cache_lookup) 0.5);
    metric "serve.compute_p50_ms" "ms" (q (stage Serve.Telemetry.Compute) 0.5);
    metric "serve.reply_write_p50_ms" "ms" (q (stage Serve.Telemetry.Reply_write) 0.5);
    metric "serve.client_delta_mean_ms" "ms"
      ((Array.fold_left ( +. ) 0.0 p.op_ms /. float_of_int (Array.length p.op_ms))
      -. mean_ms (Serve.Telemetry.total_histogram tel));
  ]

(* A workload's ops, run as the untraced timed pass (ops [0, n)) and, in a
   traced run, a second traced pass (ops [n, 2n)). Returns the passes and
   the per-layer metrics of the traced one. *)
type passes = {
  timed : pass;
  traced : (pass * metric list) option;
}

let run_passes settings h ~op =
  let one ~first =
    Serve.Telemetry.reset (Serve.Server.telemetry h.server);
    let s0 = stats_snapshot h and c0 = Util.Trace.counters () and g0 = gc_now () in
    let p = closed_loop ~n:settings.ops (fun ~client i -> op ~client (first + i)) in
    let g1 = gc_now () and c1 = Util.Trace.counters () and s1 = stats_snapshot h in
    let per_op x = x /. float_of_int settings.ops in
    let layers =
      telemetry_metrics h p
      @ List.map2 (fun (name, v0) (_, v1) -> metric name "count" (v1 -. v0)) s0 s1
      @ [
          metric "ssta.mc_samples" "count"
            (per_op (float_of_int (counter_delta c0 "mc_samples" ~now:c1)));
        ]
      @ gc_metrics ~prefix:"gc.op" ~per:settings.ops g0 g1
    in
    (p, layers)
  in
  Util.Trace.disable ();
  let timed, _ = one ~first:0 in
  let traced =
    if settings.trace then begin
      Util.Trace.enable ();
      Some (one ~first:settings.ops)
    end
    else None
  in
  { timed; traced }

let all_ops settings (ps : passes) =
  settings.ops * match ps.traced with Some _ -> 2 | None -> 1

let req_id k = Printf.sprintf "op-%d" k

let retime_call edit = P.Retime { circuit = c880; r = None; n_blocks = None; edit }

(* one call, timed as a client span *)
let traced_call h ~client k c =
  let start_ns = Util.Trace.now_ns () in
  let r = call h ~id:(k + 1) ~req_id:(req_id k) c in
  record_client_span ~req_id:(req_id k) ~client ~start_ns ~end_ns:(Util.Trace.now_ns ());
  r

(* ---------------------------------------------------------------- *)
(* setup *)

type setup_info = {
  setup_s : float;
  prepare_s : float;
  r : int;  (** truncation the server's prepare reports *)
  c_setup0 : (string * int) list;
  c_setup1 : (string * int) list;
  g_setup0 : gc;
  g_setup1 : gc;
}

(* mesh and eigensolve run inside the server: serve.prepare_s covers them *)
let setup_metrics si =
  let count name = float_of_int (counter_delta si.c_setup0 name ~now:si.c_setup1) in
  [
    metric "kle.kernel_evals" "count" (count "kernel_evals");
    metric "kle.matvecs" "count" (count "matvecs");
    metric "kle.lanczos_iterations" "count" (count "lanczos_iterations");
    metric "kle.r" "count" (float_of_int si.r);
    metric "serve.prepare_s" "s" si.prepare_s;
  ]
  @ gc_metrics ~prefix:"gc.setup" si.g_setup0 si.g_setup1

(* server start, cold prepare of c880 and one unedited retime, which
   extracts every block; all three are setup and inside [setup_s] *)
let setup settings =
  let c_setup0 = Util.Trace.counters () and g_setup0 = gc_now () in
  let (h, reply, prepare_s, unedited), setup_s =
    time (fun () ->
        Util.Trace.with_span "bench.setup" @@ fun () ->
        let h = Util.Trace.with_span "serve.start" (fun () -> start settings) in
        (* cold prepare of c880: mesh + eigensolve inside the server *)
        let reply, prepare_s =
          time (fun () ->
              Util.Trace.with_span "serve.prepare" (fun () ->
                  must_ok "prepare"
                    (call h ~id:0 ~req_id:"setup-prepare" (P.Prepare { circuit = c880; r = None }))))
        in
        let unedited =
          Util.Trace.with_span "serve.retime" (fun () ->
              must_ok "unedited retime" (call h ~id:0 ~req_id:"setup-retime" (retime_call None)))
        in
        (h, reply, prepare_s, unedited))
  in
  let r = Option.value ~default:0 (Option.bind (J.member "r" reply) J.as_int) in
  ( h,
    unedited,
    {
      setup_s;
      prepare_s;
      r;
      c_setup0;
      c_setup1 = Util.Trace.counters ();
      g_setup0;
      g_setup1 = gc_now ();
    } )

(* the truncation check: a wrong r fails every op *)
let r_failures settings si ~n_ops =
  if (not settings.short) && si.r <> 25 then begin
    pf "# CHECK FAILED r = %d\n" si.r;
    n_ops
  end
  else 0

(* a number field of a reply payload *)
let num payload key = Option.value ~default:nan (Option.bind (J.member key payload) J.as_num)

(* [f] over the replies of the traced pass (ops [n, 2n)) *)
let traced_replies settings replies f =
  Array.of_list
    (List.filter_map
       (fun i -> Option.map f replies.(settings.ops + i))
       (List.init settings.ops Fun.id))

let outcome si ps ~check_failures ~refs ~op_layers =
  {
    setup_s = si.setup_s;
    timed = ps.timed;
    traced = Option.map fst ps.traced;
    check_failures;
    layers =
      (match ps.traced with None -> [] | Some (_, l) -> setup_metrics si @ l @ op_layers ());
    refs;
  }

(* ---------------------------------------------------------------- *)
(* serve-retime: the served write path *)

(* c880's NAND2/NOR2 gates: a swap keeps arity and pin count *)
let swappable netlist =
  Array.of_list
    (List.filter_map
       (fun (g : Circuit.Netlist.gate) ->
         match g.Circuit.Netlist.kind with
         | Circuit.Gate.Nand2 -> Some (g.Circuit.Netlist.id, Circuit.Gate.Nor2)
         | Circuit.Gate.Nor2 -> Some (g.Circuit.Netlist.id, Circuit.Gate.Nand2)
         | _ -> None)
       (Array.to_list netlist.Circuit.Netlist.gates))

(* an edit whose flat worst mean or sigma moves by more than this share
   (in %) of the unedited value tells a stale reply from a fresh one. On
   c880 the reply's shift tracked the flat shift to within 0.12 % of the
   unedited value, and 11 of the 162 edits move one by more than 0.3 %. *)
let moved_pct = 0.3

let run_retime settings =
  let netlist = Circuit.Generator.generate_paper "c880" in
  let gates = swappable netlist in
  let order = permutation ~seed:settings.seed (Array.length gates) in
  let passes = if settings.trace then 2 else 1 in
  if passes * settings.ops > Array.length gates then
    failwith
      (Printf.sprintf "serve-retime: %d edits requested, c880 has %d swappable gates"
         (passes * settings.ops) (Array.length gates));
  let edit k =
    let gate, kind = gates.(order.(k)) in
    { Hier.Edit.gate; kind }
  in
  let h, unedited_reply, si = setup settings in
  let replies = Array.make (passes * settings.ops) None in
  let ps =
    run_passes settings h ~op:(fun ~client k ->
        let e = edit k in
        let wire_edit = { P.gate = e.Hier.Edit.gate; kind = Hier.Edit.kind_to_string e.Hier.Edit.kind } in
        match traced_call h ~client k (retime_call (Some wire_edit)) with
        | Ok payload ->
            replies.(k) <- Some payload;
            true
        | Error f ->
            pf "# op %d failed: %s\n%!" k (Serve.Client.failure_to_string f);
            false)
  in
  stop h;
  let n_ops = all_ops settings ps in
  (* Every edit against a flat Block_ssta.run of the same edited design,
     within bench retime's tolerance (e_mu 1 %, e_sigma 10 %). That
     tolerance is wide next to an edit's effect, so where the edit moves
     the flat worst mean or sigma by more than [moved_pct], the reply must
     also be closer to the edited design's flat run than to the unedited
     one's, once the hierarchical-vs-flat offset of the unedited design
     (setup's unedited retime against its flat run) is taken out: the
     reply's shift from the unedited reply must be closer to the flat
     shift than to zero. A server that ignored the edit or served the
     unedited result fails.
     The flat run's models come from the hierarchical eigensolve: its
     eigenvalues are within ~1e-6 of the default mode's, far inside the
     tolerance, at a fraction of the cost. *)
  let model, _, _ = build_model ~mode:Kle.Galerkin.Hierarchical settings in
  let models = Array.make 4 model in
  let unedited = Ssta.Block_ssta.run (place netlist) ~models in
  let flat_ms = Array.make n_ops nan in
  let bad = Array.make n_ops false in
  let moved_edits = ref 0 and worst_mu = ref 0.0 and worst_sigma = ref 0.0 in
  for k = 0 to n_ops - 1 do
    match replies.(k) with
    | None -> bad.(k) <- true
    | Some payload ->
        let edited =
          match Hier.Edit.apply netlist (edit k) with Ok nl -> nl | Error m -> failwith m
        in
        let setup = place edited in
        let flat, dt = time (fun () -> Ssta.Block_ssta.run setup ~models) in
        flat_ms.(k) <- ms dt;
        let compare name get =
          let field = "worst_" ^ name in
          let reply = num payload field and want = get flat and stale = get unedited in
          let moved = pct_err ~reference:stale want > moved_pct in
          let err = pct_err ~reference:want reply in
          (* the edit's shift, in the reply and in the flat runs *)
          let d_reply = reply -. num unedited_reply field and d_flat = want -. stale in
          let tracks = (not moved) || Float.abs (d_reply -. d_flat) < Float.abs d_reply in
          (err, moved, tracks)
        in
        let e_mu, moved_mu, tracks_mu = compare "mean" Ssta.Block_ssta.mean in
        let e_sigma, moved_sigma, tracks_sigma = compare "sigma" Ssta.Block_ssta.sigma in
        if moved_mu || moved_sigma then incr moved_edits;
        worst_mu := Float.max !worst_mu e_mu;
        worst_sigma := Float.max !worst_sigma e_sigma;
        if not (e_mu <= 1.0 && e_sigma <= 10.0 && tracks_mu && tracks_sigma) then begin
          pf "# CHECK FAILED op %d: retime vs flat e_mu %.3f%%, e_sigma %.3f%%%s\n%!" k e_mu
            e_sigma
            (if tracks_mu && tracks_sigma then "" else ", closer to the unedited design");
          bad.(k) <- true
        end
  done;
  pf "# meta retime_vs_flat_max_e_mu_pct=%.4f max_e_sigma_pct=%.4f edits_moved=%d/%d\n"
    !worst_mu !worst_sigma !moved_edits n_ops;
  let check_failures =
    max (r_failures settings si ~n_ops) (Array.fold_left (fun n b -> if b then n + 1 else n) 0 bad)
  in
  (* per op, from the reply fields *)
  let op_layers () =
    let mean f = Array.fold_left ( +. ) 0.0 (traced_replies settings replies f) /. float_of_int settings.ops in
    [
      metric "hier.blocks_recomputed" "count" (mean (fun p -> num p "blocks_recomputed"));
      metric "hier.blocks_reused" "count" (mean (fun p -> num p "blocks_reused"));
    ]
  in
  outcome si ps ~check_failures ~op_layers ~refs:[ ("ssta.flat_ms", median flat_ms) ]
