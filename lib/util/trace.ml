(* Hierarchical spans + typed counters with Chrome-trace / aggregate-JSON
   exporters. See trace.mli for the contract; the key invariants here:

   - Disabled fast path: one [Atomic.get] + branch, no allocation.
   - Per-domain state lives in [Domain.DLS] (span stack, event buffer,
     ambient pool parent); global state (counter registry, buffer list,
     GC baseline) is guarded by mutexes or atomics.
   - Structural spans are only ever opened on the domain that calls
     [with_span]; pool workers go through [with_pool_job], which records a
     non-structural "pool.job" span on the worker's own track. That split
     is what keeps [structure ()] identical for any pool size. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* ---------------------------------------------------------------- *)
(* Counters                                                          *)
(* ---------------------------------------------------------------- *)

type counter = { cname : string; cell : int Atomic.t }

let registry_mutex = Mutex.create ()

(* Reverse registration order. *)
let registered : counter list ref = ref []

let counter cname =
  Mutex.lock registry_mutex;
  let c =
    match List.find_opt (fun c -> String.equal c.cname cname) !registered with
    | Some c -> c
    | None ->
        let c = { cname; cell = Atomic.make 0 } in
        registered := c :: !registered;
        c
  in
  Mutex.unlock registry_mutex;
  c

let add c n =
  if Atomic.get enabled_flag && n <> 0 then
    ignore (Atomic.fetch_and_add c.cell n)

let incr c = add c 1
let value c = Atomic.get c.cell

let counters () =
  Mutex.lock registry_mutex;
  let cs = !registered in
  Mutex.unlock registry_mutex;
  List.rev_map (fun c -> (c.cname, Atomic.get c.cell)) cs

let kernel_evals = counter "kernel_evals"
let matvecs = counter "matvecs"
let matmul_flops = counter "matmul_flops"
let lanczos_iterations = counter "lanczos_iterations"
let cholesky_jitter_retries = counter "cholesky_jitter_retries"
let mc_samples = counter "mc_samples"
let mc_skipped = counter "mc_skipped"
let pool_wait_ns = counter "pool_wait_ns"
let pool_run_ns = counter "pool_run_ns"
let nearfield_evals = counter "nearfield_evals"
let aca_rank_sum = counter "aca_rank_sum"
let htree_nodes = counter "htree_nodes"
let hmatrix_near_blocks = counter "hmatrix_near_blocks"
let hmatrix_far_blocks = counter "hmatrix_far_blocks"
let gates_recomputed = counter "gates_recomputed"

(* GC gauge baseline: words at the last enable/reset. *)
let gc_base = Atomic.make (0.0, 0.0, 0.0)

let snapshot_gc () =
  let s = Gc.quick_stat () in
  Atomic.set gc_base (s.Gc.minor_words, s.Gc.promoted_words, s.Gc.major_words)

let gc_deltas () =
  let mi0, pr0, ma0 = Atomic.get gc_base in
  let s = Gc.quick_stat () in
  [
    ("gc_minor_words", s.Gc.minor_words -. mi0);
    ("gc_promoted_words", s.Gc.promoted_words -. pr0);
    ("gc_major_words", s.Gc.major_words -. ma0);
  ]

(* ---------------------------------------------------------------- *)
(* Events and per-domain state                                       *)
(* ---------------------------------------------------------------- *)

type attr = string * string

type event =
  | Span of {
      name : string;
      path : string;
      ts : int;
      dur : int;
      self_ns : int;
      args : attr list;
      structural : bool;
    }
  | Instant of { name : string; path : string; ts : int; args : attr list }

(* One event buffer per domain, registered globally on first use so the
   exporters can collect everything from the exporting domain. *)
type dbuf = { tid : int; mutable rev_events : event list }

let buffers_mutex = Mutex.create ()
let buffers : dbuf list ref = ref []

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { tid = (Domain.self () :> int); rev_events = [] } in
      Mutex.lock buffers_mutex;
      buffers := b :: !buffers;
      Mutex.unlock buffers_mutex;
      b)

type frame = {
  f_name : string;
  f_path : string;
  f_start : int;
  f_args : attr list;
  f_structural : bool;
  mutable f_children : int;  (* summed durations of direct children *)
}

let stack_key = Domain.DLS.new_key (fun () -> ref ([] : frame list))
let ambient_key = Domain.DLS.new_key (fun () -> ref "")

let current_path () =
  match !(Domain.DLS.get stack_key) with
  | f :: _ -> f.f_path
  | [] -> !(Domain.DLS.get ambient_key)

let emit e =
  let b = Domain.DLS.get buf_key in
  b.rev_events <- e :: b.rev_events

let span_enter ~structural ~attrs name =
  let stack = Domain.DLS.get stack_key in
  let parent =
    match !stack with
    | f :: _ -> f.f_path
    | [] -> !(Domain.DLS.get ambient_key)
  in
  let path = if String.length parent = 0 then name else parent ^ ";" ^ name in
  let fr =
    {
      f_name = name;
      f_path = path;
      f_start = now_ns ();
      f_args = attrs;
      f_structural = structural;
      f_children = 0;
    }
  in
  stack := fr :: !stack;
  fr

let span_event ~dur fr =
  Span
    {
      name = fr.f_name;
      path = fr.f_path;
      ts = fr.f_start;
      dur;
      self_ns = dur - fr.f_children;
      args = fr.f_args;
      structural = fr.f_structural;
    }

let span_exit fr =
  let stack = Domain.DLS.get stack_key in
  let dur = now_ns () - fr.f_start in
  (match !stack with
  | top :: tl when top == fr -> stack := tl
  | frames ->
      (* Unbalanced exit (should not happen: with_span is exception-safe);
         drop down to [fr] so the stack stays usable. *)
      let rec drop = function
        | top :: tl when top == fr -> tl
        | _ :: tl -> drop tl
        | [] -> []
      in
      stack := drop frames);
  (match !stack with
  | parent :: _ -> parent.f_children <- parent.f_children + dur
  | [] -> ());
  emit (span_event ~dur fr)

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else
    let fr = span_enter ~structural:true ~attrs name in
    Fun.protect ~finally:(fun () -> span_exit fr) f

let instant ?(attrs = []) name =
  if Atomic.get enabled_flag then
    emit (Instant { name; path = current_path (); ts = now_ns (); args = attrs })

let with_pool_job ~parent f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let amb = Domain.DLS.get ambient_key in
    let saved = !amb in
    amb := parent;
    let fr = span_enter ~structural:false ~attrs:[] "pool.job" in
    Fun.protect
      ~finally:(fun () ->
        span_exit fr;
        amb := saved)
      f
  end

(* ---------------------------------------------------------------- *)
(* Lifecycle                                                         *)
(* ---------------------------------------------------------------- *)

let enable () =
  if not (Atomic.get enabled_flag) then begin
    snapshot_gc ();
    Atomic.set enabled_flag true
  end

let disable () = Atomic.set enabled_flag false

let reset () =
  Mutex.lock registry_mutex;
  List.iter (fun c -> Atomic.set c.cell 0) !registered;
  Mutex.unlock registry_mutex;
  Mutex.lock buffers_mutex;
  List.iter (fun b -> b.rev_events <- []) !buffers;
  Mutex.unlock buffers_mutex;
  snapshot_gc ()

(* ---------------------------------------------------------------- *)
(* Collection                                                        *)
(* ---------------------------------------------------------------- *)

(* All recorded events as (tid, event), oldest-first per track, tracks
   sorted by tid. Spans still open on the calling domain are flushed
   with their duration-so-far (without popping them), so an exporter run
   from inside a root span — e.g. an `at_exit` hook — still sees it. *)
let collect_events () =
  Mutex.lock buffers_mutex;
  let bufs = List.sort (fun a b -> Int.compare a.tid b.tid) !buffers in
  Mutex.unlock buffers_mutex;
  let my_tid = (Domain.self () :> int) in
  let now = now_ns () in
  let open_here =
    List.rev_map
      (fun fr -> (my_tid, span_event ~dur:(now - fr.f_start) fr))
      !(Domain.DLS.get stack_key)
  in
  List.concat_map
    (fun b -> List.rev_map (fun e -> (b.tid, e)) b.rev_events)
    bufs
  @ open_here

let structural_spans () =
  List.filter_map
    (function
      | _, Span ({ structural = true; _ } as s) ->
          Some (s.path, s.name, s.dur, s.self_ns)
      | _ -> None)
    (collect_events ())

(* ---------------------------------------------------------------- *)
(* Aggregation                                                       *)
(* ---------------------------------------------------------------- *)

type node = {
  name : string;
  path : string;
  count : int;
  total_ns : int;
  self_ns : int;
  children : node list;
}

type stat = {
  mutable s_name : string;
  mutable s_count : int;
  mutable s_total : int;
  mutable s_self : int;
}

let stats_by_path () =
  let tbl : (string, stat) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (path, name, dur, self_ns) ->
      match Hashtbl.find_opt tbl path with
      | Some s ->
          s.s_count <- s.s_count + 1;
          s.s_total <- s.s_total + dur;
          s.s_self <- s.s_self + self_ns
      | None ->
          Hashtbl.add tbl path
            { s_name = name; s_count = 1; s_total = dur; s_self = self_ns })
    (structural_spans ());
  tbl

let parent_path path =
  match String.rindex_opt path ';' with
  | Some i -> String.sub path 0 i
  | None -> ""

let span_tree () =
  let tbl = stats_by_path () in
  let paths =
    Hashtbl.fold (fun p _ acc -> p :: acc) tbl []
    |> List.sort String.compare
  in
  (* Children lists in reverse path order; reversed on node construction. *)
  let kids : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun p ->
      let parent = parent_path p in
      if String.length parent = 0 || not (Hashtbl.mem tbl parent) then
        roots := p :: !roots
      else
        Hashtbl.replace kids parent
          (p :: (Option.value ~default:[] (Hashtbl.find_opt kids parent))))
    paths;
  let rec build p =
    let s = Hashtbl.find tbl p in
    let children =
      List.rev_map build (Option.value ~default:[] (Hashtbl.find_opt kids p))
    in
    {
      name = s.s_name;
      path = p;
      count = s.s_count;
      total_ns = s.s_total;
      self_ns = s.s_self;
      children;
    }
  in
  List.rev_map build !roots

let structure () =
  let tbl = stats_by_path () in
  Hashtbl.fold (fun p s acc -> (p, s.s_count) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------------------------------------------------------------- *)
(* Text summary                                                      *)
(* ---------------------------------------------------------------- *)

let s_of_ns ns = float_of_int ns *. 1e-9

let summary () =
  let b = Buffer.create 1024 in
  let tree = span_tree () in
  if tree <> [] then begin
    Buffer.add_string b "span tree (total s | self s | calls):\n";
    let rec pr depth n =
      Buffer.add_string b
        (Printf.sprintf "%s%-*s %9.4f %9.4f %7d\n" (String.make (2 * depth) ' ')
           (max 1 (36 - (2 * depth)))
           n.name (s_of_ns n.total_ns) (s_of_ns n.self_ns) n.count);
      List.iter (pr (depth + 1)) n.children
    in
    List.iter (pr 0) tree
  end;
  let nonzero = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  if nonzero <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %d\n" k v))
      nonzero
  end;
  Buffer.add_string b "gc deltas (words):\n";
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-28s %.0f\n" k v))
    (gc_deltas ());
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Chrome trace_event exporter                                       *)
(* ---------------------------------------------------------------- *)

let add_args b args =
  Buffer.add_string b ", \"args\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Jsonx.escape_into b k;
      Buffer.add_string b ": ";
      Jsonx.escape_into b v)
    args;
  Buffer.add_char b '}'

let write_chrome_trace path =
  let events = collect_events () in
  let t0 =
    List.fold_left
      (fun acc (_, e) ->
        let ts = match e with Span s -> s.ts | Instant i -> i.ts in
        min acc ts)
      max_int events
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let us ns = float_of_int (ns - t0) *. 1e-3 in
  let tids =
    List.sort_uniq Int.compare (List.map (fun (tid, _) -> tid) events)
  in
  let sorted =
    List.stable_sort
      (fun (_, a) (_, b) ->
        let ts = function Span s -> s.ts | Instant i -> i.ts in
        Int.compare (ts a) (ts b))
      events
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  sep ();
  Buffer.add_string b
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
     \"args\": {\"name\": \"kle-ssta\"}}";
  List.iter
    (fun tid ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": \
            %d, \"args\": {\"name\": \"domain-%d%s\"}}"
           tid tid
           (if tid = 0 then " (main)" else "")))
    tids;
  List.iter
    (fun (tid, e) ->
      sep ();
      match e with
      | Span s ->
          Buffer.add_string b "{\"name\": ";
          Jsonx.escape_into b s.name;
          Buffer.add_string b
            (Printf.sprintf
               ", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
                %.3f, \"pid\": 0, \"tid\": %d"
               (if s.structural then "span" else "pool")
               (us s.ts)
               (float_of_int s.dur *. 1e-3)
               tid);
          add_args b (("path", s.path) :: s.args);
          Buffer.add_char b '}'
      | Instant i ->
          Buffer.add_string b "{\"name\": ";
          Jsonx.escape_into b i.name;
          Buffer.add_string b
            (Printf.sprintf
               ", \"cat\": \"instant\", \"ph\": \"i\", \"s\": \"t\", \"ts\": \
                %.3f, \"pid\": 0, \"tid\": %d"
               (us i.ts) tid);
          add_args b (("path", i.path) :: i.args);
          Buffer.add_char b '}')
    sorted;
  (* Counter totals as a final global instant so they travel with the
     trace file. *)
  let nonzero = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  if nonzero <> [] then begin
    sep ();
    Buffer.add_string b
      (Printf.sprintf
         "{\"name\": \"counters\", \"cat\": \"meta\", \"ph\": \"i\", \"s\": \
          \"g\", \"ts\": %.3f, \"pid\": 0, \"tid\": 0"
         (us (now_ns ())));
    add_args b (List.map (fun (k, v) -> (k, string_of_int v)) nonzero);
    Buffer.add_char b '}'
  end;
  Buffer.add_string b "\n]}\n";
  (* atomic tmp+rename: an interrupted export must never leave a truncated
     trace that chrome://tracing refuses to load *)
  Fileio.with_atomic_out path (fun oc -> Buffer.output_buffer oc b)
