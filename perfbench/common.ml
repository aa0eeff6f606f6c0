(* Shared machinery of the benchmark: run settings, timing, percentiles,
   GC deltas, the paper's KLE model and the metric records each workload
   hands back to [Bench]. *)

let pf = Printf.printf

type settings = {
  seed : int;
  ops : int;  (** ops in one pass; fixed by [--seconds], never time-boxed *)
  trace : bool;
  short : bool;  (** coarse mesh, few samples: every phase and check, quickly *)
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* one timed pass: a fixed number of ops of a single kind *)
type pass = {
  op_ms : float array;  (** client-observed latency per op, in op order *)
  wall_s : float;  (** wall time of the whole pass *)
  failed : int;
  peak_rss_mb : float;  (** at the end of the pass, so the checks' own memory is left out *)
}

type outcome = {
  setup_s : float;
  timed : pass;  (** the untraced pass that every end-to-end metric comes from *)
  traced : pass option;  (** the traced pass of a [--trace 1] run *)
  check_failures : int;  (** ops whose outputs failed a check *)
  layers : metric list;  (** per-layer metrics, from the traced pass *)
  refs : (string * float) list;  (** reference numbers, printed, not metrics *)
}

let time f =
  let t = Util.Timer.start () in
  let v = f () in
  (v, Util.Timer.elapsed_s t)

let ms s = s *. 1e3

(* the process's peak resident set so far (VmHWM), in MB *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* the highest percentile with at least 10 ops beyond it (the (n-10)th
   smallest op), and that percentile; the maximum when n <= 10 *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n > 10 then (s.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)
  else (s.(n - 1), 100.0)

(* |v - reference| as a percentage of |reference| *)
let pct_err ~reference v = 100.0 *. Float.abs (v -. reference) /. Float.abs reference

(* fresh per-op seeds derived from the workload seed *)
let op_seed settings k = (settings.seed * 1_000_003) + k + 1

(* a seeded permutation of [0, n) *)
let permutation ~seed n =
  let st = Random.State.make [| seed; 0x5EED |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---------------------------------------------------------------- *)
(* GC and trace-counter deltas *)

type gc = { minor : int; major : int; minor_words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    minor_words = s.Gc.minor_words;
  }

(* [prefix].minor_collections etc. over the interval, divided by [per] *)
let gc_metrics ~prefix ?(per = 1) g0 g1 =
  let d x = x /. float_of_int per in
  [
    metric (prefix ^ "_minor_collections") "count" (d (float_of_int (g1.minor - g0.minor)));
    metric (prefix ^ "_major_collections") "count" (d (float_of_int (g1.major - g0.major)));
    metric (prefix ^ "_minor_words") "words" (d (g1.minor_words -. g0.minor_words));
  ]

(* a trace counter's growth between two [Util.Trace.counters] snapshots *)
let counter_delta c0 name ~now =
  let get c = Option.value ~default:0 (List.assoc_opt name c) in
  get now - get c0

(* ---------------------------------------------------------------- *)
(* the KLE model of the paper flow *)

(* mesh resolution: the paper's n = 1544 triangles, or a coarse die for
   the short mode *)
let mesh_frac settings =
  if settings.short then 0.05 else Ssta.Algorithm2.paper_config.Ssta.Algorithm2.max_area_fraction

let kle_config settings =
  { Ssta.Algorithm2.paper_config with Ssta.Algorithm2.max_area_fraction = mesh_frac settings }

let paper_kernel () =
  (Ssta.Process.paper_default ()).Ssta.Process.parameters.(0).Ssta.Process.kernel

(* mesh -> Galerkin eigensolve -> truncation, as the server's prepare
   does it (dense below 200 triangles, else 200 Lanczos pairs); the
   paper's four parameters share one kernel, so one model serves all of
   them. [mode] defaults to the library's. *)
let build_model ?mode settings =
  let mesh, mesh_s =
    time (fun () ->
        (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:(mesh_frac settings)
           ~min_angle_deg:Ssta.Algorithm2.paper_config.Ssta.Algorithm2.min_angle_deg)
          .Geometry.Geometry_intf.mesh)
  in
  let pairs = Ssta.Algorithm2.paper_config.Ssta.Algorithm2.computed_pairs in
  let solution, solve_s =
    time (fun () ->
        if pairs >= Geometry.Mesh.size mesh then
          Kle.Galerkin.solve ~solver:Kle.Galerkin.Dense mesh (paper_kernel ())
        else
          Kle.Galerkin.solve ?mode ~solver:(Kle.Galerkin.Lanczos { count = pairs }) mesh
            (paper_kernel ()))
  in
  (Kle.Model.create solution, mesh_s, solve_s)

(* the paper's truncation picks r = 25 on the n = 1544 mesh *)
let r_ok settings model = if settings.short then model.Kle.Model.r >= 1 else model.Kle.Model.r = 25

(* placed as the server places it, so both sides time the same design *)
let place netlist =
  Ssta.Experiment.setup_circuit
    ~placement_seed:Serve.Server.default_config.Serve.Server.placement_seed netlist

let setup_circuit name = place (Circuit.Generator.generate_paper name)
