(* JSON reporter for the benchmark harness: collects one record per
   measured run and writes them, rendered by [Util.Jsonx], as a JSON array,
   so BENCH_*.json files accumulate a machine-readable perf trajectory next
   to the human-readable tables. *)

module J = Util.Jsonx

let int i = J.Num (float_of_int i)

type record = {
  name : string;  (** subcommand / measurement id, e.g. ["scale"] *)
  params : (string * J.t) list;  (** free-form inputs (kernel, mesh_frac…) *)
  wall_s : float;  (** total wall time of the measured work *)
  per_stage_s : (string * float) list;  (** stage name -> seconds *)
  counters : (string * int) list;
      (** Util.Trace work-counter deltas over the measured work (kernel
          evals, matvecs, …); empty when tracing was off *)
  mesh_n : int option;  (** mesh triangles, when a mesh is involved *)
  r : int option;  (** eigenpairs computed/retained, when applicable *)
  jobs : int option;  (** worker-domain override ([None] = default pool) *)
  samples : int option;  (** Monte Carlo samples, when applicable *)
}

(* A file is a list of entries discriminated by a ["kind"] field: [Row] is
   a timed measurement; [Meta] carries derived results or run config
   (crossover points, harness options) without abusing the row schema
   (wall_s = 0, null measurement fields). *)
type entry =
  | Row of record
  | Meta of { name : string; params : (string * J.t) list }

let record_value r =
  let opt = function Some i -> int i | None -> J.Null in
  J.Obj
    [
      ("kind", J.Str "row");
      ("name", J.Str r.name);
      ("params", J.Obj r.params);
      ("wall_s", J.Num r.wall_s);
      ("per_stage_s", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.per_stage_s));
      ("counters", J.Obj (List.map (fun (k, v) -> (k, int v)) r.counters));
      ("mesh_n", opt r.mesh_n);
      ("r", opt r.r);
      ("jobs", opt r.jobs);
      ("samples", opt r.samples);
    ]

let entry_value = function
  | Row r -> record_value r
  | Meta { name; params } ->
      J.Obj [ ("kind", J.Str "meta"); ("name", J.Str name); ("params", J.Obj params) ]

(* one entry per line, so diffs between BENCH files stay line-oriented; the
   write is atomic (tmp+rename) so an interrupted run can never leave a
   truncated, unparsable BENCH file *)
let write_file path entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      Buffer.add_string b (J.to_string (entry_value r)))
    entries;
  Buffer.add_string b "\n]\n";
  Util.Fileio.write_atomic path (Buffer.contents b)
