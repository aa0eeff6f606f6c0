(* The benchmark's entry point: one workload per process.

     bench.exe --workload table1|serve-retime --seed N --seconds S
               --trace 0|1 [--short] [--trace-dir DIR]

   Prints run metadata and reference numbers as "# " lines, then, as the
   last line, one JSON object {"correct", "attempted", "failed",
   "metrics"}: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. Exits non-zero when an op fails or a check
   does. See README.md for the workloads and the metric map. *)

open Common

(* ops per run at [--seconds s]: [s] times a nominal rate, so the op count
   is fixed per run length and never time-boxed. A traced run splits them
   into an untraced and a traced pass of half each. *)
let ops_for ~short ~seconds workload =
  let at rate = max 22 (int_of_float (Float.round (rate *. seconds))) in
  match workload with
  | "table1" -> if short then 2 else at 1.0
  | _ ->
      (* no edit repeats within a run, and c880 has 162 swappable gates *)
      if short then 4 else min 162 (at 8.0)

let workloads = [ "table1"; "serve-retime" ]

(* every per-layer metric, in report order; a workload reports 0 for a
   layer it does not run (README.md maps each to its workloads) *)
let per_layer =
  [
    ("geometry.mesh_s", "s"); ("kle.solve_s", "s"); ("kle.kernel_evals", "count");
    ("kle.matvecs", "count"); ("kle.lanczos_iterations", "count");
    ("circuit.setup_ms", "ms"); ("kle.r", "count"); ("kle.sampler_create_ms", "ms");
    ("kle.sample_ms", "ms"); ("sta.propagate_ms", "ms"); ("ssta.mc_samples", "count");
    ("util.pool_wait_ms", "ms"); ("util.pool_run_ms", "ms");
    ("gc.setup_minor_collections", "count"); ("gc.setup_major_collections", "count");
    ("gc.setup_minor_words", "words"); ("gc.op_minor_collections", "count");
    ("gc.op_major_collections", "count"); ("gc.op_minor_words", "words");
    ("serve.prepare_s", "s"); ("serve.queue_wait_p50_ms", "ms");
    ("serve.queue_wait_p99_ms", "ms"); ("serve.batch_wait_p50_ms", "ms");
    ("serve.cache_lookup_p50_ms", "ms"); ("serve.compute_p50_ms", "ms");
    ("serve.reply_write_p50_ms", "ms"); ("serve.client_delta_mean_ms", "ms");
    ("serve.cache_hits_mem", "count"); ("serve.cache_hits_disk", "count");
    ("serve.cache_misses", "count"); ("persist.store_hits", "count");
    ("persist.store_misses", "count"); ("persist.store_writes", "count");
    ("hier.blocks_recomputed", "count"); ("hier.blocks_reused", "count");
    ("trace.overhead_op_p50_pct", "%"); ("trace.overhead_ops_per_s_pct", "%");
  ]

(* a fixed pure-ALU loop: tells drift of the box from program changes *)
let spin_probe_s () =
  let x = ref 0x2545F491 in
  let (), dt =
    time (fun () ->
        for _ = 1 to 50_000_000 do
          x := !x lxor (!x lsl 13);
          x := !x lxor (!x lsr 7);
          x := !x lxor (!x lsl 17)
        done)
  in
  ignore (Sys.opaque_identity !x);
  dt

let json_metric m =
  (m.name, Util.Jsonx.Obj [ ("value", Util.Jsonx.Num m.value); ("unit", Util.Jsonx.Str m.unit_) ])

let end_to_end o =
  let p = o.timed in
  let tail_ms, _ = tail p.op_ms in
  [
    metric "setup_s" "s" o.setup_s;
    metric "ops_per_s" "1/s" (float_of_int (Array.length p.op_ms) /. p.wall_s);
    metric "op_p50_ms" "ms" (median p.op_ms);
    metric "op_tail_ms" "ms" tail_ms;
    metric "peak_rss_mb" "MB" p.peak_rss_mb;
  ]

(* traced minus untraced pass, as a share of the untraced one *)
let overhead o =
  match o.traced with
  | None -> []
  | Some t ->
      let pct traced untraced = 100.0 *. (traced -. untraced) /. untraced in
      let rate p = float_of_int (Array.length p.op_ms) /. p.wall_s in
      [
        metric "trace.overhead_op_p50_pct" "%" (pct (median t.op_ms) (median o.timed.op_ms));
        metric "trace.overhead_ops_per_s_pct" "%" (pct (rate t) (rate o.timed));
      ]

let run ~workload ~seed ~seconds ~trace ~short ~trace_dir =
  let ops = ops_for ~short ~seconds workload in
  let settings = { seed; ops = (if trace then max 1 (ops / 2) else ops); trace; short } in
  let probe = spin_probe_s () in
  if trace then Util.Trace.enable ();
  let epoch_ns = Util.Trace.now_ns () in
  let o =
    Util.Trace.with_span ~attrs:[ ("workload", workload) ] "bench.run" @@ fun () ->
    match workload with
    | "table1" -> Table1.run settings
    | _ -> Served.run_retime settings
  in
  let _, tail_pct = tail o.timed.op_ms in
  pf "# meta workload=%s seed=%d ops=%d short=%b nproc=%d ocaml=%s\n" workload seed
    settings.ops short
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  (* table1's setup runs at the default jobs, the server at its config's *)
  if workload = "table1" then
    pf "# meta setup_jobs=%d op_jobs=%d\n" (Util.Pool.size (Util.Pool.default ())) Table1.op_jobs
  else pf "# meta jobs=1 clients=%d\n" Served.clients;
  pf "# meta tail_percentile=%.2f tail_ops_beyond=%d spin_probe_s=%.4f\n" tail_pct
    (if Array.length o.timed.op_ms > 10 then 10 else 0)
    probe;
  List.iter (fun (k, v) -> pf "# ref %s=%.6g\n" k v) o.refs;
  let metrics =
    if not trace then end_to_end o
    else begin
      let layers = o.layers @ overhead o in
      let path = Filename.concat trace_dir (workload ^ ".trace.json") in
      Util.Trace.write_chrome_trace path;
      if workload = "serve-retime" then Served.merge_client_spans ~epoch_ns path;
      let summary = Filename.concat trace_dir (workload ^ ".summary.txt") in
      Out_channel.with_open_bin summary (fun oc -> output_string oc (Util.Trace.summary ()));
      pf "# trace %s\n# summary %s\n" path summary;
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun m -> m.name = name) layers with
          | Some m -> m
          | None -> metric name unit_ 0.0)
        per_layer
    end
  in
  let passes = o.timed :: Option.to_list o.traced in
  let attempted = List.fold_left (fun n p -> n + Array.length p.op_ms) 0 passes in
  let failed = min attempted (List.fold_left (fun n p -> n + p.failed) o.check_failures passes) in
  let correct = failed = 0 in
  print_endline
    (Util.Jsonx.to_string
       (Util.Jsonx.Obj
          [
            ("correct", Util.Jsonx.Bool correct);
            ("attempted", Util.Jsonx.Num (float_of_int attempted));
            ("failed", Util.Jsonx.Num (float_of_int failed));
            ("metrics", Util.Jsonx.Obj (List.map json_metric metrics));
          ]));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let short = ref false and trace_dir = ref (Filename.get_temp_dir_name ()) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " run length; fixes the op count");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
      ("--short", Arg.Set short, " coarse mesh, few ops: every phase and check, quickly");
      ("--trace-dir", Arg.Set_string trace_dir, " where a traced run writes its files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let names = if !workload = "all" then workloads else [ !workload ] in
  if not (List.for_all (fun w -> List.mem w workloads) names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let ok =
    List.for_all
      (fun workload ->
        run ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~short:!short
          ~trace_dir:!trace_dir)
      names
  in
  exit (if ok then 0 else 1)
