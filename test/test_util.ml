let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let check_float = Alcotest.(check (float 1e-12))

let test_float_range () =
  let r = Util.Arrayx.float_range ~start:0.0 ~stop:1.0 ~count:5 in
  Alcotest.(check int) "count" 5 (Array.length r);
  check_float "first" 0.0 r.(0);
  check_float "last" 1.0 r.(4);
  check_float "step" 0.25 r.(1)

let test_float_range_negative () =
  let r = Util.Arrayx.float_range ~start:(-2.0) ~stop:2.0 ~count:3 in
  check_float "middle" 0.0 r.(1)

let test_float_range_invalid () =
  Alcotest.check_raises "count 1" (Invalid_argument "Arrayx.float_range: count must be >= 2")
    (fun () -> ignore (Util.Arrayx.float_range ~start:0.0 ~stop:1.0 ~count:1))

let test_argmax () =
  Alcotest.(check int) "argmax" 2 (Util.Arrayx.argmax [| 1.0; 3.0; 7.0; 2.0 |]);
  Alcotest.(check int) "first max wins" 1 (Util.Arrayx.argmax [| 1.0; 7.0; 7.0 |])

let test_arg_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Arrayx: empty array") (fun () ->
      ignore (Util.Arrayx.argmax [||]))

let test_sum_mean () =
  check_float "sum" 6.0 (Util.Arrayx.sum [| 1.0; 2.0; 3.0 |]);
  check_float "sum empty" 0.0 (Util.Arrayx.sum [||]);
  check_float "mean" 2.0 (Util.Arrayx.mean [| 1.0; 2.0; 3.0 |])

let test_sort_desc_with_perm () =
  let sorted, perm = Util.Arrayx.sort_desc_with_perm [| 1.0; 3.0; 2.0 |] in
  Alcotest.(check (array (float 0.0))) "sorted" [| 3.0; 2.0; 1.0 |] sorted;
  Alcotest.(check (array int)) "perm" [| 1; 2; 0 |] perm

let test_sort_perm_roundtrip () =
  let a = [| 0.3; -1.0; 5.0; 2.0; 2.0 |] in
  let sorted, perm = Util.Arrayx.sort_desc_with_perm a in
  Array.iteri (fun i p -> Alcotest.(check (float 0.0)) "perm maps" a.(p) sorted.(i)) perm

let test_timer_positive () =
  let t = Util.Timer.start () in
  let acc = ref 0.0 in
  for i = 1 to 10000 do
    acc := !acc +. float_of_int i
  done;
  ignore !acc;
  Alcotest.(check bool) "elapsed >= 0" true (Util.Timer.elapsed_s t >= 0.0)

let test_timer_time () =
  let v, dt = Util.Timer.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check bool) "time >= 0" true (dt >= 0.0)

let test_table_renders () =
  let t = Util.Table.create ~columns:[ ("name", Util.Table.Left); ("x", Util.Table.Right) ] in
  Util.Table.add_row t [ "alpha"; "1.5" ];
  Util.Table.add_row t [ "b"; "10.25" ];
  let s = Util.Table.to_string t in
  Alcotest.(check bool) "contains header" true (contains_substring s "name");
  Alcotest.(check bool) "contains cell" true (contains_substring s "alpha")

let test_table_alignment () =
  let t = Util.Table.create ~columns:[ ("c", Util.Table.Right) ] in
  Util.Table.add_row t [ "7" ];
  let s = Util.Table.to_string t in
  (* right-aligned single char under header width 1: "| 7 |" *)
  Alcotest.(check bool) "has cell" true (contains_substring s "| 7 |")

let test_table_mismatch () =
  let t = Util.Table.create ~columns:[ ("a", Util.Table.Left) ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Util.Table.add_row t [ "x"; "y" ])

(* ---------- Pool ---------- *)

let test_pool_covers_all_indices () =
  let pool = Util.Pool.create ~num_domains:3 () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.shutdown pool)
    (fun () ->
      let n = 1013 in
      let hits = Array.make n 0 in
      (* Alcotest's reporter is not domain-safe: worker domains only record
         bad ranges, and the main domain asserts after the loop *)
      let bad_ranges = ref [] in
      let lock = Mutex.create () in
      Util.Pool.parallel_for pool ~chunk:7 ~n (fun lo hi ->
          Mutex.protect lock (fun () ->
              if lo mod 7 <> 0 || not (lo < hi && hi <= n) then
                bad_ranges := (lo, hi) :: !bad_ranges;
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done));
      Alcotest.(check (list (pair int int)))
        "ranges chunk-aligned and non-empty" [] !bad_ranges;
      Array.iteri
        (fun i c -> Alcotest.(check int) (Printf.sprintf "index %d hit once" i) 1 c)
        hits)

let test_pool_seq_matches_parallel () =
  let sum_with pool =
    let acc = Atomic.make 0 in
    Util.Pool.parallel_for pool ~chunk:16 ~n:500 (fun lo hi ->
        let s = ref 0 in
        for i = lo to hi - 1 do
          s := !s + i
        done;
        ignore (Atomic.fetch_and_add acc !s));
    Atomic.get acc
  in
  let pool = Util.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "seq and parallel sums equal" (sum_with Util.Pool.seq)
        (sum_with pool);
      Alcotest.(check int) "expected sum" (500 * 499 / 2) (sum_with pool))

let test_pool_propagates_exception () =
  let pool = Util.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "body exception re-raised in caller" true
        (match
           Util.Pool.parallel_for pool ~chunk:1 ~n:64 (fun lo _ ->
               if lo = 13 then failwith "boom")
         with
        | () -> false
        | exception Failure m -> m = "boom");
      (* the pool must stay usable after a failed job *)
      let count = Atomic.make 0 in
      Util.Pool.parallel_for pool ~chunk:1 ~n:10 (fun lo hi ->
          ignore (Atomic.fetch_and_add count (hi - lo)));
      Alcotest.(check int) "pool alive after exception" 10 (Atomic.get count))

let test_pool_nested_runs_sequentially () =
  let pool = Util.Pool.create ~num_domains:2 () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.shutdown pool)
    (fun () ->
      let inner_total = Atomic.make 0 in
      Util.Pool.parallel_for pool ~chunk:4 ~n:16 (fun _ _ ->
          (* a nested parallel_for must degrade to sequential, not deadlock *)
          Util.Pool.parallel_for pool ~chunk:2 ~n:8 (fun lo hi ->
              ignore (Atomic.fetch_and_add inner_total (hi - lo))));
      Alcotest.(check int) "nested bodies all ran" (4 * 8) (Atomic.get inner_total))

let test_pool_with_jobs () =
  Alcotest.(check int) "jobs:1 gives the sequential pool" 1
    (Util.Pool.with_jobs ~jobs:1 Util.Pool.size);
  Alcotest.(check int) "jobs:3 gives 3 lanes" 3
    (Util.Pool.with_jobs ~jobs:3 Util.Pool.size);
  Alcotest.(check bool) "jobs:0 clamps to sequential" true
    (Util.Pool.with_jobs ~jobs:0 Util.Pool.size = 1)

let test_fmt_float () =
  Alcotest.(check string) "default" "1.500" (Util.Table.fmt_float 1.5);
  Alcotest.(check string) "digits" "1.50" (Util.Table.fmt_float ~digits:2 1.5)

(* ---------- Diag ---------- *)

let test_diag_record_and_query () =
  let sink = Util.Diag.create () in
  Alcotest.(check int) "empty" 0 (Util.Diag.count sink);
  Util.Diag.record ~sink Util.Diag.Info `Fault_injected ~stage:"t" "a";
  Util.Diag.record ~sink Util.Diag.Warning `Degraded_fallback ~stage:"t" "b";
  Util.Diag.record ~sink Util.Diag.Warning `Not_psd ~stage:"t" "c";
  Alcotest.(check int) "count" 3 (Util.Diag.count sink);
  Alcotest.(check int) "warnings" 2
    (Util.Diag.count ~min_severity:Util.Diag.Warning sink);
  Alcotest.(check int) "by code" 1 (Util.Diag.count ~code:`Not_psd sink);
  (match Util.Diag.events sink with
  | [ a; b; c ] ->
      Alcotest.(check string) "oldest first" "a" a.Util.Diag.detail;
      Alcotest.(check string) "middle" "b" b.Util.Diag.detail;
      Alcotest.(check string) "newest last" "c" c.Util.Diag.detail
  | _ -> Alcotest.fail "expected 3 events");
  Util.Diag.clear sink;
  Alcotest.(check int) "cleared" 0 (Util.Diag.count sink)

let test_diag_no_sink_is_noop () =
  (* library code records unconditionally; without a sink nothing happens *)
  Util.Diag.record Util.Diag.Warning `Non_finite ~stage:"t" "dropped"

let test_diag_fail_records_and_raises () =
  let sink = Util.Diag.create () in
  (match Util.Diag.fail ~sink `No_convergence ~stage:"solver" "budget exhausted" with
  | _ -> Alcotest.fail "expected Failure"
  | exception Util.Diag.Failure e ->
      Alcotest.(check bool) "error severity" true (e.Util.Diag.severity = Util.Diag.Error);
      Alcotest.(check bool) "code" true (e.Util.Diag.code = `No_convergence);
      Alcotest.(check string) "stage" "solver" e.Util.Diag.stage);
  Alcotest.(check int) "recorded" 1 (Util.Diag.count ~min_severity:Util.Diag.Error sink)

let test_diag_to_string () =
  let e =
    { Util.Diag.severity = Util.Diag.Warning; code = `Not_psd; stage = "mvn"; detail = "x" }
  in
  let s = Util.Diag.to_string e in
  Alcotest.(check bool) "has severity" true (contains_substring s "warning");
  Alcotest.(check bool) "has code" true (contains_substring s "not-psd");
  Alcotest.(check bool) "has stage" true (contains_substring s "mvn")

let test_diag_thread_safety () =
  let sink = Util.Diag.create () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 250 do
              Util.Diag.record ~sink Util.Diag.Info `Fault_injected ~stage:"d"
                (Printf.sprintf "%d.%d" d i)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "all events kept" 1000 (Util.Diag.count sink)

(* ---------- Fault ---------- *)

let test_fault_corrupt_kinds () =
  Alcotest.(check bool) "nan" true (Float.is_nan (Util.Fault.corrupt Util.Fault.Nan 3.0));
  check_float "value" 7.0 (Util.Fault.corrupt (Util.Fault.Value 7.0) 3.0);
  check_float "scale" 6.0 (Util.Fault.corrupt (Util.Fault.Scale 2.0) 3.0);
  check_float "offset" 2.5 (Util.Fault.corrupt (Util.Fault.Offset (-0.5)) 3.0)

let test_fault_plan_selects_first_only () =
  let p = Util.Fault.plan ~first:2 Util.Fault.Nan in
  let out = Array.init 5 (fun i -> Util.Fault.apply p (float_of_int i)) in
  Alcotest.(check int) "calls counted" 5 (Util.Fault.calls p);
  Alcotest.(check int) "fired once" 1 (Util.Fault.fired p);
  Array.iteri
    (fun i v ->
      if i = 2 then Alcotest.(check bool) "faulted call" true (Float.is_nan v)
      else check_float "clean call" (float_of_int i) v)
    out

let test_fault_plan_periodic_with_limit () =
  let p = Util.Fault.plan ~first:1 ~period:2 ~limit:3 (Util.Fault.Value 0.0) in
  let out = Array.init 10 (fun _ -> Util.Fault.apply p 1.0) in
  (* selected: calls 1, 3, 5, 7, 9 — limit caps at 3 *)
  Alcotest.(check int) "fired" 3 (Util.Fault.fired p);
  let faulted = Array.to_list out |> List.filteri (fun i _ -> i = 1 || i = 3 || i = 5) in
  List.iter (fun v -> check_float "zeroed" 0.0 v) faulted;
  check_float "past limit untouched" 1.0 out.(7);
  Util.Fault.reset p;
  Alcotest.(check int) "reset calls" 0 (Util.Fault.calls p);
  Alcotest.(check int) "reset fired" 0 (Util.Fault.fired p);
  Alcotest.(check bool) "fires again after reset" true
    (Float.is_finite (Util.Fault.apply p 1.0) && Util.Fault.apply p 1.0 = 0.0)

(* the I/O fault plans behind Persist.Store and the chaos harness share
   the same counter/selection engine as the numeric plans *)
let test_fault_io_plan_selection () =
  let p = Util.Fault.io_plan ~first:1 ~period:3 ~limit:2 Util.Fault.Read_error in
  let fired = Array.init 10 (fun _ -> Util.Fault.fires p) in
  (* selected: calls 1, 4, 7, ... — limit caps at 2 *)
  Array.iteri
    (fun i f -> Alcotest.(check bool) (Printf.sprintf "call %d" i) (i = 1 || i = 4) f)
    fired;
  Alcotest.(check int) "calls counted" 10 (Util.Fault.calls p);
  Alcotest.(check int) "fired capped by limit" 2 (Util.Fault.fired p);
  Alcotest.(check bool) "kind preserved" true (Util.Fault.kind p = Util.Fault.Read_error)

let test_fault_io_plan_one_shot_and_fire () =
  (* period 0 = one-shot at [first]; [fire] returns the kind exactly there *)
  let p = Util.Fault.io_plan ~first:2 (Util.Fault.Latency 5.0) in
  Alcotest.(check bool) "call 0 clean" true (Util.Fault.fire p = None);
  Alcotest.(check bool) "call 1 clean" true (Util.Fault.fire p = None);
  (match Util.Fault.fire p with
  | Some (Util.Fault.Latency ms) -> check_float "latency payload" 5.0 ms
  | _ -> Alcotest.fail "expected the latency fault at call 2");
  Alcotest.(check bool) "call 3 clean" true (Util.Fault.fire p = None);
  Alcotest.(check string) "io_kind_name" "latency(5ms)"
    (Util.Fault.io_kind_name (Util.Fault.Latency 5.0))

(* ---------- histogram ---------- *)

(* a deterministic spread of latencies across several powers of two,
   including the exact-bucket range below 32 *)
let hist_samples =
  Array.init 4096 (fun i -> (i * 2654435761) land 0xFFFFF)

let record_all h samples = Array.iter (Util.Histogram.record h) samples

let hist_state h =
  (Util.Histogram.count h, Util.Histogram.sum h, Util.Histogram.buckets h)

let test_histogram_domain_determinism () =
  (* the same multiset of samples recorded on one domain vs. racing across
     two domains yields bit-identical buckets — addition commutes *)
  let h1 = Util.Histogram.create () in
  record_all h1 hist_samples;
  let h2 = Util.Histogram.create () in
  let n = Array.length hist_samples in
  let half tid () =
    let i = ref tid in
    while !i < n do
      Util.Histogram.record h2 hist_samples.(!i);
      i := !i + 2
    done
  in
  let d0 = Domain.spawn (half 0) and d1 = Domain.spawn (half 1) in
  Domain.join d0;
  Domain.join d1;
  Alcotest.(check bool) "1-domain = 2-domain" true (hist_state h1 = hist_state h2);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "quantile %.3f" p)
        (Util.Histogram.quantile h1 p) (Util.Histogram.quantile h2 p))
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_histogram_quantiles () =
  let h = Util.Histogram.create () in
  record_all h hist_samples;
  let q p = Util.Histogram.quantile h p in
  (* monotone in p, bounded by the max bucket *)
  Alcotest.(check bool) "p50 <= p90" true (q 0.5 <= q 0.9);
  Alcotest.(check bool) "p90 <= p99" true (q 0.9 <= q 0.99);
  Alcotest.(check bool) "p99 <= p999" true (q 0.99 <= q 0.999);
  Alcotest.(check bool) "p999 <= max" true (q 0.999 <= Util.Histogram.max_value h);
  (* the log-linear layout bounds relative error: the bucket midpoint of
     any value is within ~3.2% of the value itself (1/32 sub-buckets) *)
  Array.iter
    (fun v ->
      let mid = Util.Histogram.bucket_value (Util.Histogram.bucket_index v) in
      let err = abs_float (float_of_int (mid - v)) /. float_of_int (max v 1) in
      if v >= 32 && err > 0.033 then
        Alcotest.failf "bucket midpoint of %d is %d (%.1f%% off)" v mid (err *. 100.))
    hist_samples;
  (* negative values clamp to bucket 0 *)
  let neg = Util.Histogram.create () in
  Util.Histogram.record neg (-5);
  Alcotest.(check int) "negative clamps" 0 (Util.Histogram.quantile neg 1.0)

(* ---------- minimal JSON parser (for exporter round-trip checks) ---------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let bad msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else bad "unexpected end" in
    let next () =
      let c = peek () in
      incr pos;
      c
    in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      let g = next () in
      if g <> c then bad (Printf.sprintf "expected '%c', got '%c'" c g)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else bad ("bad literal, wanted " ^ lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec loop () =
        match next () with
        | '"' -> Buffer.contents b
        | '\\' ->
            (match next () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 > n then bad "truncated \\u escape";
                let code = int_of_string ("0x" ^ String.sub s !pos 4) in
                pos := !pos + 4;
                (* ASCII is all the exporters emit; keep others symbolic *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
            | c -> bad (Printf.sprintf "bad escape '%c'" c));
            loop ()
        | c -> Buffer.add_char b c; loop ()
      in
      loop ()
    in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> Str (parse_string ())
      | '{' ->
          incr pos;
          skip_ws ();
          if peek () = '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              (match next () with
              | ',' -> members ((k, v) :: acc)
              | '}' -> Obj (List.rev ((k, v) :: acc))
              | c -> bad (Printf.sprintf "bad object separator '%c'" c))
            in
            members []
      | '[' ->
          incr pos;
          skip_ws ();
          if peek () = ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              (match next () with
              | ',' -> elems (v :: acc)
              | ']' -> Arr (List.rev (v :: acc))
              | c -> bad (Printf.sprintf "bad array separator '%c'" c))
            in
            elems []
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | c when is_num_char c ->
          let start = !pos in
          while !pos < n && is_num_char s.[!pos] do
            incr pos
          done;
          Num (float_of_string (String.sub s start (!pos - start)))
      | c -> bad (Printf.sprintf "unexpected '%c'" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then bad "trailing garbage";
    v
end

let obj_field name j =
  match j with
  | Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.fail ("missing JSON field: " ^ name))
  | _ -> Alcotest.fail ("expected JSON object when reading field: " ^ name)

let get_string = function
  | Json.Str s -> s
  | _ -> Alcotest.fail "expected JSON string"

let get_num = function
  | Json.Num f -> f
  | _ -> Alcotest.fail "expected JSON number"

let get_list = function
  | Json.Arr l -> l
  | _ -> Alcotest.fail "expected JSON array"

(* ---------- Diag JSON ---------- *)

let test_diag_to_json () =
  let e =
    {
      Util.Diag.severity = Util.Diag.Warning;
      code = `Not_psd;
      stage = "mvn";
      detail = "alpha \"quoted\"\nline2";
    }
  in
  let json = Json.parse (Util.Diag.to_json e) in
  Alcotest.(check string) "severity" "warning"
    (get_string (obj_field "severity" json));
  Alcotest.(check string) "code" "not-psd" (get_string (obj_field "code" json));
  Alcotest.(check string) "stage" "mvn" (get_string (obj_field "stage" json));
  Alcotest.(check string) "detail escaping round-trips" "alpha \"quoted\"\nline2"
    (get_string (obj_field "detail" json))

(* ---------- Trace ---------- *)

(* Each test owns the (global) tracer: enable + reset on entry, disable on
   exit even when the assertion raises. *)
let with_tracer f =
  Util.Trace.enable ();
  Util.Trace.reset ();
  Fun.protect ~finally:(fun () -> Util.Trace.disable ()) f

let test_trace_now_ns_monotonic () =
  let a = Util.Trace.now_ns () in
  let b = Util.Trace.now_ns () in
  Alcotest.(check bool) "positive and monotonic" true (a > 0 && b >= a)

let test_trace_span_paths_and_exceptions () =
  with_tracer @@ fun () ->
  Alcotest.(check string) "top-level path empty" "" (Util.Trace.current_path ());
  let v =
    Util.Trace.with_span "outer" (fun () ->
        Util.Trace.with_span "inner" (fun () -> Util.Trace.current_path ()))
  in
  Alcotest.(check string) "nested path" "outer;inner" v;
  (match Util.Trace.with_span "boom" (fun () -> failwith "payload") with
  | () -> Alcotest.fail "expected Failure"
  | exception Stdlib.Failure m -> Alcotest.(check string) "re-raised" "payload" m);
  Alcotest.(check string) "stack unwound after raise" ""
    (Util.Trace.current_path ());
  Alcotest.(check (list (pair string int))) "all spans recorded"
    [ ("boom", 1); ("outer", 1); ("outer;inner", 1) ]
    (Util.Trace.structure ());
  let tree = Util.Trace.span_tree () in
  let outer = List.find (fun n -> n.Util.Trace.name = "outer") tree in
  match outer.Util.Trace.children with
  | [ inner ] ->
      Alcotest.(check string) "child path" "outer;inner" inner.Util.Trace.path;
      Alcotest.(check int) "self + child = total" outer.Util.Trace.total_ns
        (outer.Util.Trace.self_ns + inner.Util.Trace.total_ns)
  | _ -> Alcotest.fail "expected exactly one child under outer"

(* The pipeline's instrumentation pattern: structural spans on the
   submitting domain, parallel_for bodies inside them, work counters
   bulk-added from the problem shape. *)
let run_traced_workload ~jobs =
  with_tracer @@ fun () ->
  let work = Util.Trace.counter "test.work" in
  Util.Pool.with_jobs ~jobs @@ fun pool ->
  Util.Trace.with_span "prepare" (fun () ->
      Util.Trace.with_span "assemble" (fun () -> Util.Trace.add work 7));
  Util.Trace.with_span "run" (fun () ->
      for _batch = 1 to 3 do
        Util.Trace.with_span "batch" (fun () ->
            let acc = Atomic.make 0 in
            Util.Pool.parallel_for pool ~chunk:4 ~n:64 (fun lo hi ->
                ignore (Atomic.fetch_and_add acc (hi - lo)));
            Util.Trace.add work (Atomic.get acc))
      done);
  (Util.Trace.structure (), Util.Trace.value work)

let test_trace_structure_jobs_invariant () =
  let s1, w1 = run_traced_workload ~jobs:1 in
  let s2, w2 = run_traced_workload ~jobs:2 in
  Alcotest.(check (list (pair string int))) "structure identical -j1 vs -j2" s1 s2;
  Alcotest.(check int) "work counter identical -j1 vs -j2" w1 w2;
  Alcotest.(check (list (pair string int))) "expected shape"
    [ ("prepare", 1); ("prepare;assemble", 1); ("run", 1); ("run;batch", 3) ]
    s1

let test_trace_counter_atomicity () =
  with_tracer @@ fun () ->
  let c = Util.Trace.counter "test.atomic" in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25_000 do
              Util.Trace.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates across domains" 100_000
    (Util.Trace.value c);
  Alcotest.(check bool) "visible in counters ()" true
    (List.mem_assoc "test.atomic" (Util.Trace.counters ()))

let test_trace_chrome_export_wellformed () =
  let path = Filename.temp_file "trace_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path)
  @@ fun () ->
  (with_tracer @@ fun () ->
   Util.Trace.with_span ~attrs:[ ("k", "v") ] "outer" (fun () ->
       Util.Trace.with_span "inner" (fun () ->
           Util.Diag.record Util.Diag.Warning `Non_finite ~stage:"test"
             "bridged instant");
       Util.Trace.add (Util.Trace.counter "test.export") 11);
   Util.Trace.write_chrome_trace path);
  let ic = open_in_bin path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let json = Json.parse raw in
  Alcotest.(check string) "displayTimeUnit" "ms"
    (get_string (obj_field "displayTimeUnit" json));
  let events = get_list (obj_field "traceEvents" json) in
  Alcotest.(check bool) "has events" true (List.length events >= 5);
  List.iter
    (fun e ->
      ignore (get_string (obj_field "name" e));
      ignore (get_string (obj_field "ph" e));
      ignore (get_num (obj_field "pid" e));
      ignore (get_num (obj_field "tid" e)))
    events;
  let ph e = get_string (obj_field "ph" e) in
  let name e = get_string (obj_field "name" e) in
  Alcotest.(check bool) "process_name metadata" true
    (List.exists (fun e -> ph e = "M" && name e = "process_name") events);
  let inner = List.find (fun e -> ph e = "X" && name e = "inner") events in
  Alcotest.(check string) "nested path arg" "outer;inner"
    (get_string (obj_field "path" (obj_field "args" inner)));
  Alcotest.(check bool) "dur non-negative" true
    (get_num (obj_field "dur" inner) >= 0.0);
  Alcotest.(check bool) "diag event bridged as instant" true
    (List.exists (fun e -> ph e = "i" && name e = "diag:non-finite") events);
  let counters_evt = List.find (fun e -> name e = "counters") events in
  Alcotest.(check string) "counter total travels with trace" "11"
    (get_string (obj_field "test.export" (obj_field "args" counters_evt)))

let noop () = ()

let test_trace_disabled_overhead () =
  Util.Trace.disable ();
  let c = Util.Trace.counter "test.disabled" in
  let body () =
    for _ = 1 to 100_000 do
      Util.Trace.with_span "noop" noop;
      Util.Trace.add c 3;
      Util.Trace.instant "nothing"
    done
  in
  body ();
  (* warmed up *)
  let w0 = Gc.minor_words () in
  body ();
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free when disabled (%.0f words)" dw)
    true (dw < 1000.0);
  Alcotest.(check int) "counter untouched when disabled" 0 (Util.Trace.value c);
  Alcotest.(check string) "no path tracked when disabled" ""
    (Util.Trace.with_span "x" Util.Trace.current_path)

let test_fault_plan_invalid_args () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "negative first" true
    (raises (fun () -> Util.Fault.plan ~first:(-1) Util.Fault.Nan));
  Alcotest.(check bool) "negative period" true
    (raises (fun () -> Util.Fault.plan ~period:(-2) Util.Fault.Nan));
  Alcotest.(check bool) "negative limit" true
    (raises (fun () -> Util.Fault.plan ~limit:(-1) Util.Fault.Nan))

(* ---------- lint rules ---------- *)

let rec repo_root dir =
  if Sys.file_exists (Filename.concat dir "tools/lint.sh") then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else repo_root parent

(* rule 6: a scratch allocation without a re-entrancy comment must fail the
   lint; the same file with the comment must pass.  Runs the real script
   against a throwaway fixture tree. *)
let test_lint_scratch_needs_reentrancy_comment () =
  match repo_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "tools/lint.sh not found above the test cwd"
  | Some root ->
      let lint = Filename.concat root "tools/lint.sh" in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "lint-test.%d" (Unix.getpid ()))
      in
      let libdir = Filename.concat dir "lib" in
      Unix.mkdir dir 0o755;
      Unix.mkdir libdir 0o755;
      let file = Filename.concat libdir "probe.ml" in
      let write body =
        let oc = open_out file in
        output_string oc body;
        close_out oc
      in
      let run () =
        Sys.command
          (Printf.sprintf "sh %s %s >/dev/null 2>&1" (Filename.quote lint)
             (Filename.quote dir))
      in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove file with Sys_error _ -> ());
          (try Unix.rmdir libdir with Unix.Unix_error _ -> ());
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
      @@ fun () ->
      let scratch_closure =
        "let make () =\n  let scratch = Array.make 4 0.0 in\n  fun x -> scratch.(0) <- x\n"
      in
      write scratch_closure;
      Alcotest.(check bool) "undocumented scratch rejected" true (run () <> 0);
      write ("(* re-entrancy: probe buffers are checked out per call *)\n" ^ scratch_closure);
      Alcotest.(check int) "documented scratch accepted" 0 (run ());
      (* a file with no scratch at all is untouched by rule 6 *)
      write "let id x = x\n";
      Alcotest.(check int) "scratch-free file accepted" 0 (run ())

(* rule 7: worker domains in lib/serve/ must be spawned through
   Supervisor.spawn — the same text is allowed only inside supervisor.ml,
   the module that implements the policy *)
let test_lint_domain_spawn_confined_to_supervisor () =
  match repo_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "tools/lint.sh not found above the test cwd"
  | Some root ->
      let lint = Filename.concat root "tools/lint.sh" in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "lint7-test.%d" (Unix.getpid ()))
      in
      let libdir = Filename.concat dir "lib" in
      let servedir = Filename.concat libdir "serve" in
      Unix.mkdir dir 0o755;
      Unix.mkdir libdir 0o755;
      Unix.mkdir servedir 0o755;
      let bad_file = Filename.concat servedir "pool.ml" in
      let sup_file = Filename.concat servedir "supervisor.ml" in
      let write path body =
        let oc = open_out path in
        output_string oc body;
        close_out oc
      in
      let run () =
        Sys.command
          (Printf.sprintf "sh %s %s >/dev/null 2>&1" (Filename.quote lint)
             (Filename.quote dir))
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            [ bad_file; sup_file ];
          List.iter
            (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
            [ servedir; libdir; dir ])
      @@ fun () ->
      let body = "let start f = Domain.spawn f\n" in
      write bad_file body;
      Alcotest.(check bool) "bare Domain.spawn rejected" true (run () <> 0);
      Sys.remove bad_file;
      write sup_file body;
      Alcotest.(check int) "supervisor.ml is the allowed site" 0 (run ())

(* rule 8: an export whose name occurs in no source file but its own .ml
   fails the lint until it gets a caller, or an allowlist entry naming the
   test that uses it; an entry whose value has a caller fails again (the
   allowlist only shrinks) *)
let test_lint_uncalled_export () =
  match repo_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "tools/lint.sh not found above the test cwd"
  | Some root ->
      let lint = Filename.concat root "tools/lint.sh" in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "lint8-test.%d" (Unix.getpid ()))
      in
      let rec remove path =
        if Sys.is_directory path then begin
          Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
          Unix.rmdir path
        end
        else Sys.remove path
      in
      let write rel body =
        let path = Filename.concat dir rel in
        let rec mkdirs d =
          if not (Sys.file_exists d) then begin
            mkdirs (Filename.dirname d);
            Unix.mkdir d 0o755
          end
        in
        mkdirs (Filename.dirname path);
        let oc = open_out path in
        output_string oc body;
        close_out oc
      in
      let run () =
        Sys.command
          (Printf.sprintf "sh %s %s >/dev/null 2>&1" (Filename.quote lint)
             (Filename.quote dir))
      in
      Fun.protect ~finally:(fun () -> if Sys.file_exists dir then remove dir)
      @@ fun () ->
      write "lib/probe/probe.mli" "val used : int\nval spare : int\n";
      write "lib/probe/probe.ml" "let used = 1\nlet spare = used + 1\n";
      write "bin/main.ml" "let () = print_int Probe.used\n";
      Alcotest.(check bool) "uncalled export rejected" true (run () <> 0);
      write "test/test_probe.ml" "let () = assert (Probe.spare = 2)\n";
      write "tools/exports.allow"
        "lib/probe/probe.mli spare test/test_probe.ml  the fixture's oracle\n";
      Alcotest.(check int) "allowlisted with its test" 0 (run ());
      write "bin/main.ml" "let () = print_int (Probe.used + Probe.spare)\n";
      Alcotest.(check bool) "stale allowlist entry rejected" true (run () <> 0);
      write "tools/exports.allow" "";
      Alcotest.(check int) "a caller alone passes" 0 (run ())

let () =
  Alcotest.run "util"
    [
      ( "lint",
        [
          Alcotest.test_case "scratch needs a re-entrancy comment" `Quick
            test_lint_scratch_needs_reentrancy_comment;
          Alcotest.test_case "Domain.spawn confined to supervisor" `Quick
            test_lint_domain_spawn_confined_to_supervisor;
          Alcotest.test_case "no uncalled export" `Quick test_lint_uncalled_export;
        ] );
      ( "arrayx",
        [
          Alcotest.test_case "float_range basics" `Quick test_float_range;
          Alcotest.test_case "float_range negative span" `Quick test_float_range_negative;
          Alcotest.test_case "float_range rejects count<2" `Quick test_float_range_invalid;
          Alcotest.test_case "argmax" `Quick test_argmax;
          Alcotest.test_case "argmax empty raises" `Quick test_arg_empty;
          Alcotest.test_case "sum and mean" `Quick test_sum_mean;
          Alcotest.test_case "sort_desc_with_perm" `Quick test_sort_desc_with_perm;
          Alcotest.test_case "sort perm roundtrip" `Quick test_sort_perm_roundtrip;
        ] );
      ( "timer",
        [
          Alcotest.test_case "elapsed non-negative" `Quick test_timer_positive;
          Alcotest.test_case "time wraps result" `Quick test_timer_time;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders headers" `Quick test_table_renders;
          Alcotest.test_case "renders cells" `Quick test_table_alignment;
          Alcotest.test_case "row width mismatch raises" `Quick test_table_mismatch;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
      ( "pool",
        [
          Alcotest.test_case "covers all indices exactly once" `Quick
            test_pool_covers_all_indices;
          Alcotest.test_case "seq matches parallel" `Quick test_pool_seq_matches_parallel;
          Alcotest.test_case "exception propagates" `Quick test_pool_propagates_exception;
          Alcotest.test_case "nested call runs sequentially" `Quick
            test_pool_nested_runs_sequentially;
          Alcotest.test_case "with_jobs sizes" `Quick test_pool_with_jobs;
        ] );
      ( "diag",
        [
          Alcotest.test_case "record and query" `Quick test_diag_record_and_query;
          Alcotest.test_case "no sink is a no-op" `Quick test_diag_no_sink_is_noop;
          Alcotest.test_case "fail records and raises" `Quick
            test_diag_fail_records_and_raises;
          Alcotest.test_case "to_string" `Quick test_diag_to_string;
          Alcotest.test_case "to_json" `Quick test_diag_to_json;
          Alcotest.test_case "thread safety" `Quick test_diag_thread_safety;
        ] );
      ( "trace",
        [
          Alcotest.test_case "now_ns monotonic" `Quick test_trace_now_ns_monotonic;
          Alcotest.test_case "span paths and exception safety" `Quick
            test_trace_span_paths_and_exceptions;
          Alcotest.test_case "structure identical for -j1 and -j2" `Quick
            test_trace_structure_jobs_invariant;
          Alcotest.test_case "counter atomicity across domains" `Quick
            test_trace_counter_atomicity;
          Alcotest.test_case "chrome exporter well-formed" `Quick
            test_trace_chrome_export_wellformed;
          Alcotest.test_case "disabled tracer allocates nothing" `Quick
            test_trace_disabled_overhead;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "1-vs-2-domain bit identity" `Quick
            test_histogram_domain_determinism;
          Alcotest.test_case "quantile bounds" `Quick test_histogram_quantiles;
        ] );
      ( "fault",
        [
          Alcotest.test_case "corrupt kinds" `Quick test_fault_corrupt_kinds;
          Alcotest.test_case "plan fires at first only" `Quick
            test_fault_plan_selects_first_only;
          Alcotest.test_case "periodic plan with limit" `Quick
            test_fault_plan_periodic_with_limit;
          Alcotest.test_case "invalid plan args" `Quick test_fault_plan_invalid_args;
          Alcotest.test_case "io plan selection" `Quick test_fault_io_plan_selection;
          Alcotest.test_case "io plan one-shot + fire" `Quick
            test_fault_io_plan_one_shot_and_fire;
        ] );
    ]
