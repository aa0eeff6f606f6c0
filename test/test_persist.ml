(* Persistence layer: explicit binary codec, typed entities, and the
   content-addressed store — including the two contract-critical
   properties: a KLE model loaded from the store is bit-identical under
   run_mc for every jobs count, and corrupt entries degrade to a recorded
   recompute. *)

module Codec = Persist.Codec
module Entity = Persist.Entity
module Store = Persist.Store

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "persist-test.%d.%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* ---------- codec primitives ---------- *)

let test_codec_uints () =
  let values = [ 0; 1; 127; 128; 16384; max_int ] in
  let w = Codec.writer () in
  List.iter (fun v -> Codec.write_uint w v) values;
  let r = Codec.reader (Codec.contents w) in
  List.iter
    (fun v -> Alcotest.(check int) (Printf.sprintf "uint %d" v) v (Codec.read_uint r))
    values;
  Alcotest.check_raises "negative uint" (Invalid_argument "Codec.write_uint: negative")
    (fun () -> Codec.write_uint (Codec.writer ()) (-1))

let test_codec_floats_bit_exact () =
  let values =
    [ 0.0; -0.0; 1.0; -1.5; Float.pi; 1e-308; 1e308; Float.infinity; Float.neg_infinity;
      Float.nan; Float.min_float; Float.max_float; 0x1.fffffffffffffp-2 ]
  in
  let w = Codec.writer () in
  List.iter (fun v -> Codec.write_float w v) values;
  let r = Codec.reader (Codec.contents w) in
  List.iter
    (fun v ->
      let got = Codec.read_float r in
      Alcotest.(check int64)
        (Printf.sprintf "float %h bits" v)
        (Int64.bits_of_float v) (Int64.bits_of_float got))
    values

let test_codec_strings_arrays_options () =
  let w = Codec.writer () in
  Codec.write_string w "";
  Codec.write_string w "hello\x00world\xff";
  Codec.write_float_array w [| 1.5; -2.25 |];
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check string) "empty" "" (Codec.read_string r);
  Alcotest.(check string) "binary" "hello\x00world\xff" (Codec.read_string r);
  Alcotest.(check (array (float 0.0))) "floats" [| 1.5; -2.25 |] (Codec.read_float_array r);
  Codec.expect_end r

let expect_codec_error f =
  match f () with
  | _ -> Alcotest.fail "expected Codec.Error"
  | exception Codec.Error _ -> ()

let test_codec_corrupt_input () =
  expect_codec_error (fun () -> Codec.read_float (Codec.reader "abc"));
  expect_codec_error (fun () -> Codec.read_string (Codec.reader "\x05ab"));
  (* array length larger than the remaining input must not allocate *)
  expect_codec_error (fun () -> Codec.read_float_array (Codec.reader "\xff\xff\x7f"));
  expect_codec_error (fun () ->
      let r = Codec.reader "\x00\x00" in
      ignore (Codec.read_u8 r);
      Codec.expect_end r)

let test_codec_fixed64_u8_arrays () =
  let w = Codec.writer () in
  Codec.write_u8 w 0;
  Codec.write_u8 w 255;
  Codec.write_fixed64 w 0x0102030405060708L;
  Codec.write_fixed64 w Int64.min_int;
  Codec.write_array w Codec.write_string [| "a"; ""; "bc" |];
  let bytes = Codec.contents w in
  (* fixed64 is little-endian: the low byte comes first *)
  Alcotest.(check char) "fixed64 low byte first" '\x08' bytes.[2];
  let r = Codec.reader bytes in
  Alcotest.(check int) "u8 0" 0 (Codec.read_u8 r);
  Alcotest.(check int) "u8 255" 255 (Codec.read_u8 r);
  Alcotest.(check int64) "fixed64" 0x0102030405060708L (Codec.read_fixed64 r);
  Alcotest.(check int64) "fixed64 min_int" Int64.min_int (Codec.read_fixed64 r);
  Alcotest.(check (array string)) "string array" [| "a"; ""; "bc" |]
    (Codec.read_array r Codec.read_string);
  Alcotest.(check int) "nothing remains" 0 (Codec.remaining r);
  Codec.expect_end r;
  Alcotest.check_raises "u8 out of range" (Invalid_argument "Codec.write_u8: out of range")
    (fun () -> Codec.write_u8 (Codec.writer ()) 256)

let test_fnv64 () =
  (* published FNV-1a 64 test vectors *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Codec.fnv64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Codec.fnv64 "a");
  Alcotest.(check string) "hex" "af63dc4c8601ec8c" (Codec.fnv64_hex "a")

(* ---------- entities ---------- *)

let small_mesh () =
  (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:0.05 ~min_angle_deg:28.0)
    .Geometry.Geometry_intf.mesh

let paper_kernel () = Kernels.Fit.paper_gaussian ()

let small_solution () = Kle.Galerkin.solve (small_mesh ()) (paper_kernel ())

let small_netlist () =
  Circuit.Generator.generate
    { Circuit.Generator.name = "persist-test"; n_gates = 60; n_inputs = 6; n_outputs = 4;
      dff_fraction = 0.0; seed = 11 }

let roundtrip entity v = Entity.of_string entity (Entity.to_string entity v)

let check_mat msg a b =
  let ra = Linalg.Mat.raw a and rb = Linalg.Mat.raw b in
  Alcotest.(check int) (msg ^ " size") (Bigarray.Array1.dim ra) (Bigarray.Array1.dim rb);
  for i = 0 to Bigarray.Array1.dim ra - 1 do
    let x = Bigarray.Array1.unsafe_get ra i and y = Bigarray.Array1.unsafe_get rb i in
    if Int64.bits_of_float x <> Int64.bits_of_float y then
      Alcotest.failf "%s: element %d differs (%h vs %h)" msg i x y
  done

let test_entity_kernel () =
  List.iter
    (fun k ->
      let k' = roundtrip Entity.kernel k in
      Alcotest.(check string) "spec" (Entity.kernel_spec k) (Entity.kernel_spec k'))
    [ paper_kernel (); Kernels.Kernel.Exponential { c = 0.3 };
      Kernels.Kernel.Matern { b = 1.0; s = 2.5 }; Kernels.Kernel.Linear_cone { rho = 0.4 } ]

let test_entity_mesh () =
  let mesh = small_mesh () in
  let mesh' = roundtrip Entity.mesh mesh in
  Alcotest.(check int) "size" (Geometry.Mesh.size mesh) (Geometry.Mesh.size mesh');
  Alcotest.(check (float 0.0)) "min angle" (Geometry.Mesh.min_angle_deg mesh)
    (Geometry.Mesh.min_angle_deg mesh')

let test_entity_solution_and_model () =
  let solution = small_solution () in
  let solution' = roundtrip Entity.solution solution in
  Alcotest.(check (array (float 0.0)))
    "eigenvalues" solution.Kle.Galerkin.eigenvalues solution'.Kle.Galerkin.eigenvalues;
  check_mat "coefficients" solution.Kle.Galerkin.coefficients solution'.Kle.Galerkin.coefficients;
  let model = Kle.Model.create ~r:5 solution in
  let model' = roundtrip Entity.model model in
  Alcotest.(check int) "r" model.Kle.Model.r model'.Kle.Model.r

(* adversarial matrix header: dims whose byte count rows*cols*8 overflows
   int (2^31 * 2^31 * 8 ≡ 0 mod 2^63) must be rejected as corrupt before
   any allocation is attempted, not slip past a wrapped size check *)
let test_entity_mat_dims_overflow () =
  let solution = small_solution () in
  let full = Entity.to_string Entity.solution solution in
  (* the coefficient matrix is the encoding's final field: replace it with
     a crafted [rows; cols] header and no payload *)
  let coeff = solution.Kle.Galerkin.coefficients in
  let varint_len v =
    let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
    go v 1
  in
  let rows = Linalg.Mat.rows coeff and cols = Linalg.Mat.cols coeff in
  let mat_len = varint_len rows + varint_len cols + (8 * rows * cols) in
  let prefix = String.sub full 0 (String.length full - mat_len) in
  let b = Codec.writer () in
  Codec.write_uint b (1 lsl 31);
  Codec.write_uint b (1 lsl 31);
  expect_codec_error (fun () ->
      ignore (Entity.of_string Entity.solution (prefix ^ Codec.contents b)))

(* ---------- store ---------- *)

let test_store_roundtrip_and_outcomes () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store = Store.open_ ~diag ~dir () in
  let k = paper_kernel () in
  Alcotest.(check bool) "absent" true (Store.get store Entity.kernel ~spec:"k" = None);
  let v, outcome = Store.find_or_add store Entity.kernel ~spec:"k" (fun () -> k) in
  Alcotest.(check bool) "miss outcome" true (outcome = `Miss);
  Alcotest.(check string) "computed" (Entity.kernel_spec k) (Entity.kernel_spec v);
  let v, outcome =
    Store.find_or_add store Entity.kernel ~spec:"k" (fun () ->
        Alcotest.fail "must not recompute on hit")
  in
  Alcotest.(check bool) "hit outcome" true (outcome = `Hit);
  Alcotest.(check string) "loaded" (Entity.kernel_spec k) (Entity.kernel_spec v);
  let stats = Store.stats store in
  Alcotest.(check int) "one write" 1 stats.Store.writes;
  Alcotest.(check int) "one entry" 1 stats.Store.entries;
  Alcotest.(check int) "no diagnostics" 0 (Util.Diag.count diag)

(* [offset] counts back from the last byte: an entry ends with its 8-byte
   checksum, and offsets 8..16 land in the 9-byte payload of a kernel with
   one parameter, so [payload_byte] corrupts the payload itself *)
let payload_byte = 10

let flip_byte path offset =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  let i = Bytes.length b - 1 - offset in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_store_corrupt_entry_falls_back () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store = Store.open_ ~diag ~dir () in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"k" k;
  let path = Store.path store Entity.kernel ~spec:"k" in
  (* flip a payload byte: the checksum must catch it *)
  flip_byte path payload_byte;
  let recomputed = ref false in
  let v, outcome =
    Store.find_or_add store Entity.kernel ~spec:"k" (fun () ->
        recomputed := true;
        k)
  in
  Alcotest.(check bool) "recovered outcome" true (outcome = `Recovered);
  Alcotest.(check bool) "recomputed" true !recomputed;
  Alcotest.(check string) "value" (Entity.kernel_spec k) (Entity.kernel_spec v);
  Alcotest.(check int) "degraded-fallback warning" 1
    (Util.Diag.count ~min_severity:Util.Diag.Warning ~code:`Degraded_fallback diag);
  (* the recompute path re-wrote the entry, so the next read is a hit *)
  let _, outcome =
    Store.find_or_add store Entity.kernel ~spec:"k" (fun () -> Alcotest.fail "hit expected")
  in
  Alcotest.(check bool) "hit after repair" true (outcome = `Hit)

let test_store_truncated_entry_falls_back () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store = Store.open_ ~diag ~dir () in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"k" k;
  let path = Store.path store Entity.kernel ~spec:"k" in
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic / 2) in
  close_in ic;
  Util.Fileio.write_atomic path data;
  Alcotest.(check bool) "corrupt -> None" true (Store.get store Entity.kernel ~spec:"k" = None);
  Alcotest.(check bool) "corrupt file removed" false (Sys.file_exists path);
  Alcotest.(check int) "warning recorded" 1
    (Util.Diag.count ~min_severity:Util.Diag.Warning ~code:`Degraded_fallback diag)

let test_store_stale_version_falls_back () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store = Store.open_ ~diag ~dir () in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"k" k;
  (* the same entry read through a bumped codec version is stale, not corrupt *)
  let bumped = { Entity.kernel with Entity.version = Entity.kernel.Entity.version + 1 } in
  let recomputed = ref false in
  let _, outcome =
    Store.find_or_add store bumped ~spec:"k" (fun () ->
        recomputed := true;
        k)
  in
  Alcotest.(check bool) "recovered" true (outcome = `Recovered);
  Alcotest.(check bool) "recomputed" true !recomputed;
  Alcotest.(check int) "info event, not warning" 0
    (Util.Diag.count ~min_severity:Util.Diag.Warning diag);
  Alcotest.(check int) "info recorded" 1 (Util.Diag.count ~code:`Degraded_fallback diag)

let test_store_spec_collision_is_safe () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"spec-a" k;
  (* forge a colliding file: same path as another spec would never happen
     with fnv64, so simulate by copying the entry to spec-b's path *)
  let a = Store.path store Entity.kernel ~spec:"spec-a" in
  let b = Store.path store Entity.kernel ~spec:"spec-b" in
  let ic = open_in_bin a in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Util.Fileio.write_atomic b data;
  (* the stored spec string no longer matches: must not be served *)
  Alcotest.(check bool) "collision not served" true
    (Store.get store Entity.kernel ~spec:"spec-b" = None)

(* ---------- deterministic I/O fault injection ---------- *)

(* an injected read error is transient: the entry must NOT be deleted —
   the file is intact, only this read failed *)
let test_store_injected_read_error () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store =
    Store.open_ ~diag
      ~io_faults:[ Util.Fault.io_plan ~limit:1 Util.Fault.Read_error ]
      ~dir ()
  in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"k" k;
  let path = Store.path store Entity.kernel ~spec:"k" in
  Alcotest.(check bool) "failed read is a miss" true
    (Store.get store Entity.kernel ~spec:"k" = None);
  Alcotest.(check bool) "file survives the read failure" true (Sys.file_exists path);
  Alcotest.(check int) "read_failures counted" 1 (Store.stats store).Store.read_failures;
  Alcotest.(check bool) "fault event recorded" true
    (Util.Diag.count ~code:`Fault_injected diag >= 1);
  (* the plan is exhausted: the intact entry is served again *)
  Alcotest.(check bool) "served once the fault clears" true
    (Store.get store Entity.kernel ~spec:"k" <> None)

(* a short read yields a truncated image: detected as corrupt by the
   checksum, deleted, recomputed *)
let test_store_injected_short_read () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store =
    Store.open_ ~diag
      ~io_faults:[ Util.Fault.io_plan ~limit:1 Util.Fault.Short_read ]
      ~dir ()
  in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"k" k;
  let path = Store.path store Entity.kernel ~spec:"k" in
  Alcotest.(check bool) "short read detected as corrupt" true
    (Store.get store Entity.kernel ~spec:"k" = None);
  Alcotest.(check bool) "corrupt image removed" false (Sys.file_exists path)

(* a torn write lands a prefix at the final path (bypassing the atomic
   protocol); the next access detects it and recovers *)
let test_store_injected_torn_write () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store =
    Store.open_ ~diag
      ~io_faults:[ Util.Fault.io_plan ~limit:1 Util.Fault.Torn_write ]
      ~dir ()
  in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"k" k;
  Alcotest.(check bool) "torn prefix landed" true
    (Sys.file_exists (Store.path store Entity.kernel ~spec:"k"));
  let recomputed = ref false in
  let _, outcome =
    Store.find_or_add store Entity.kernel ~spec:"k" (fun () ->
        recomputed := true;
        k)
  in
  Alcotest.(check bool) "recovered" true (outcome = `Recovered);
  Alcotest.(check bool) "recomputed" true !recomputed;
  (* the clean re-write (plan exhausted) is a hit afterwards *)
  let _, outcome =
    Store.find_or_add store Entity.kernel ~spec:"k" (fun () -> Alcotest.fail "hit expected")
  in
  Alcotest.(check bool) "hit after recovery" true (outcome = `Hit)

(* latency faults only delay; results stay correct and each firing is
   recorded *)
let test_store_injected_latency () =
  with_tmp_dir @@ fun dir ->
  let diag = Util.Diag.create () in
  let store =
    Store.open_ ~diag
      ~io_faults:[ Util.Fault.io_plan ~period:1 ~limit:2 (Util.Fault.Latency 1.0) ]
      ~dir ()
  in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"k" k;
  (match Store.get store Entity.kernel ~spec:"k" with
  | Some v -> Alcotest.(check string) "value intact" (Entity.kernel_spec k) (Entity.kernel_spec v)
  | None -> Alcotest.fail "latency must not lose the entry");
  Alcotest.(check int) "both firings recorded" 2 (Util.Diag.count ~code:`Fault_injected diag)

(* ---------- fsck ---------- *)

let write_raw path data = Util.Fileio.write_atomic path data

let test_store_fsck_classification () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"good" k;
  Store.put store Entity.kernel ~spec:"bad" k;
  flip_byte (Store.path store Entity.kernel ~spec:"bad") payload_byte;
  (* a stale entry: same codec, bumped entity version *)
  let bumped = { Entity.kernel with Entity.version = Entity.kernel.Entity.version + 1 } in
  Store.put store bumped ~spec:"old" k;
  (* an orphaned atomic-write temporary *)
  write_raw (Filename.concat dir "kernel-deadbeef.bin.tmp.123.4") "partial";
  let diag = Util.Diag.create () in
  let r = Store.fsck ~diag ~dir () in
  Alcotest.(check int) "scanned" 3 r.Store.scanned;
  Alcotest.(check int) "ok" 1 r.Store.ok;
  Alcotest.(check int) "corrupt" 1 r.Store.corrupt;
  Alcotest.(check int) "stale" 1 r.Store.stale;
  Alcotest.(check int) "tmp files" 1 r.Store.tmp_files;
  Alcotest.(check int) "nothing GC'd without a cap" 0 r.Store.gc_evicted;
  (* dry run: nothing was deleted *)
  Alcotest.(check int) "dry run leaves all files" 4 (Array.length (Sys.readdir dir));
  Alcotest.(check bool) "events recorded" true (Util.Diag.count diag >= 3)

let test_store_fsck_repair () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"good" k;
  Store.put store Entity.kernel ~spec:"bad" k;
  flip_byte (Store.path store Entity.kernel ~spec:"bad") payload_byte;
  let bumped = { Entity.kernel with Entity.version = Entity.kernel.Entity.version + 1 } in
  Store.put store bumped ~spec:"old" k;
  write_raw (Filename.concat dir "kernel-deadbeef.bin.tmp.123.4") "partial";
  let r = Store.fsck ~repair:true ~dir () in
  Alcotest.(check int) "corrupt found" 1 r.Store.corrupt;
  Alcotest.(check int) "tmp swept" 1 r.Store.tmp_files;
  (* repair removes the corrupt entry and the orphan; the good entry stays
     and the stale one is left to self-heal on next access *)
  Alcotest.(check bool) "corrupt gone" false
    (Sys.file_exists (Store.path store Entity.kernel ~spec:"bad"));
  Alcotest.(check bool) "good kept" true
    (Sys.file_exists (Store.path store Entity.kernel ~spec:"good"));
  Alcotest.(check bool) "stale kept" true
    (Sys.file_exists (Store.path store Entity.kernel ~spec:"old"));
  Alcotest.(check int) "two files remain" 2 (Array.length (Sys.readdir dir));
  (* idempotent: a second repair finds a clean store *)
  let r2 = Store.fsck ~repair:true ~dir () in
  Alcotest.(check int) "second pass clean" 0 (r2.Store.corrupt + r2.Store.tmp_files)

let test_store_fsck_gc_oldest_first () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let k = paper_kernel () in
  List.iter (fun spec -> Store.put store Entity.kernel ~spec k) [ "a"; "b"; "c" ];
  let path spec = Store.path store Entity.kernel ~spec in
  let size = (Unix.stat (path "a")).Unix.st_size in
  (* pin distinct mtimes: a oldest, c newest *)
  List.iteri
    (fun i spec ->
      let t = Unix.time () -. 3600.0 +. (float_of_int i *. 60.0) in
      Unix.utimes (path spec) t t)
    [ "a"; "b"; "c" ];
  (* cap fits two entries: only the oldest is evicted *)
  let r = Store.fsck ~repair:true ~max_bytes:(2 * size) ~dir () in
  Alcotest.(check int) "one eviction" 1 r.Store.gc_evicted;
  Alcotest.(check bool) "oldest evicted" false (Sys.file_exists (path "a"));
  Alcotest.(check bool) "b kept" true (Sys.file_exists (path "b"));
  Alcotest.(check bool) "c kept" true (Sys.file_exists (path "c"));
  Alcotest.(check bool) "bytes_after under cap" true (r.Store.bytes_after <= 2 * size);
  (* dry run projects the same eviction without deleting *)
  let store2 = Store.open_ ~dir () in
  Store.put store2 Entity.kernel ~spec:"a" k;
  Unix.utimes (path "a") 1.0 1.0;
  let dry = Store.fsck ~max_bytes:(2 * size) ~dir () in
  Alcotest.(check int) "dry-run projects eviction" 1 dry.Store.gc_evicted;
  Alcotest.(check bool) "dry run deletes nothing" true (Sys.file_exists (path "a"))

(* entries of kinds no build reads any more (hierarchical block macros,
   stitched results, dependency edges, circuit setups, netlists, prepared
   samplers) never self-heal: fsck counts them as
   retired, a dry run reports them as problems (so `ssta_serve --fsck`
   exits 1) and --repair reclaims them *)
let test_store_fsck_retired_kinds () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let k = paper_kernel () in
  Store.put store Entity.kernel ~spec:"good" k;
  let retired kind : string Entity.t =
    { Entity.kind; version = 1; encode = Codec.write_string; decode = Codec.read_string }
  in
  let kinds =
    [ "hier-macro"; "hier-stitch"; "dep-edges"; "circuit-setup"; "netlist"; "kle-sampler" ]
  in
  let n = List.length kinds in
  List.iter (fun kind -> Store.put store (retired kind) ~spec:kind "payload") kinds;
  let exists kind = Sys.file_exists (Store.path store (retired kind) ~spec:kind) in
  let good_bytes = (Unix.stat (Store.path store Entity.kernel ~spec:"good")).Unix.st_size in
  let diag = Util.Diag.create () in
  let dry = Store.fsck ~diag ~dir () in
  Alcotest.(check int) "scanned" (n + 1) dry.Store.scanned;
  Alcotest.(check int) "ok" 1 dry.Store.ok;
  Alcotest.(check int) "retired kinds counted" n dry.Store.retired;
  Alcotest.(check int) "retired kinds are not stale" 0 dry.Store.stale;
  Alcotest.(check int) "not corrupt" 0 dry.Store.corrupt;
  Alcotest.(check int) "dry run finds problems" n (Store.fsck_problems dry);
  Alcotest.(check int) "one event per retired entry" n (Util.Diag.count diag);
  Alcotest.(check bool) "dry run deletes nothing" true (List.for_all exists kinds);
  Alcotest.(check int) "dry run projects the reclaim" good_bytes dry.Store.bytes_after;
  let r = Store.fsck ~repair:true ~dir () in
  Alcotest.(check int) "repair: retired" n r.Store.retired;
  Alcotest.(check bool) "retired entries removed" false (List.exists exists kinds);
  Alcotest.(check bool) "good kept" true
    (Sys.file_exists (Store.path store Entity.kernel ~spec:"good"));
  let r2 = Store.fsck ~dir () in
  Alcotest.(check int) "second pass clean" 0
    (r2.Store.stale + r2.Store.retired + Store.fsck_problems r2)

(* satellite: two domains racing find_or_add over the same corrupt entry.
   Whichever loses the unlink race sees ENOENT on open — that must be a
   plain miss (recompute), never an error surfaced to the caller. *)
let test_store_concurrent_corrupt_delete_race () =
  with_tmp_dir @@ fun dir ->
  let k = paper_kernel () in
  for round = 0 to 9 do
    let store = Store.open_ ~dir () in
    let spec = Printf.sprintf "race-%d" round in
    Store.put store Entity.kernel ~spec k;
    flip_byte (Store.path store Entity.kernel ~spec) payload_byte;
    let work () =
      let v, outcome = Store.find_or_add store Entity.kernel ~spec (fun () -> k) in
      (Entity.kernel_spec v, outcome)
    in
    let d = Domain.spawn work in
    let here = work () in
    let there = Domain.join d in
    List.iter
      (fun (name, outcome) ->
        Alcotest.(check string) "value correct" (Entity.kernel_spec k) name;
        Alcotest.(check bool) "typed outcome" true
          (match outcome with `Recovered | `Miss | `Hit -> true))
      [ here; there ]
  done

(* ---------- the bit-identity acceptance criterion ---------- *)

let test_store_roundtrip_run_mc_bit_identical () =
  with_tmp_dir @@ fun dir ->
  let store = Store.open_ ~dir () in
  let setup = Ssta.Experiment.setup_circuit (small_netlist ()) in
  let model_fresh = Kle.Model.create ~r:8 (small_solution ()) in
  let model_loaded, _ =
    Store.find_or_add store Entity.model ~spec:"model" (fun () -> model_fresh)
  in
  let model_loaded, _ =
    ignore model_loaded;
    Store.find_or_add store Entity.model ~spec:"model" (fun () ->
        Alcotest.fail "model must load from disk")
  in
  let run model ~jobs =
    let samplers =
      Array.init 4 (fun _ -> Kle.Sampler.create model setup.Ssta.Experiment.locations)
    in
    let sampler rng ~n = Array.map (fun s -> Kle.Sampler.sample_matrix s rng ~n) samplers in
    Ssta.Experiment.run_mc ~jobs ~batch:32 setup ~sampler ~seed:5 ~n:96
  in
  List.iter
    (fun jobs ->
      let fresh = run model_fresh ~jobs in
      let loaded = run model_loaded ~jobs in
      let tag = Printf.sprintf "-j %d" jobs in
      Alcotest.(check int) (tag ^ " bits mean") 0
        (Int64.compare
           (Int64.bits_of_float fresh.Ssta.Experiment.worst_mean)
           (Int64.bits_of_float loaded.Ssta.Experiment.worst_mean));
      Alcotest.(check int) (tag ^ " bits sigma") 0
        (Int64.compare
           (Int64.bits_of_float fresh.Ssta.Experiment.worst_sigma)
           (Int64.bits_of_float loaded.Ssta.Experiment.worst_sigma));
      Array.iteri
        (fun i m ->
          if
            Int64.bits_of_float m
            <> Int64.bits_of_float loaded.Ssta.Experiment.endpoint_mean.(i)
          then Alcotest.failf "%s endpoint mean %d differs" tag i)
        fresh.Ssta.Experiment.endpoint_mean;
      Array.iteri
        (fun i s ->
          if
            Int64.bits_of_float s
            <> Int64.bits_of_float loaded.Ssta.Experiment.endpoint_sigma.(i)
          then Alcotest.failf "%s endpoint sigma %d differs" tag i)
        fresh.Ssta.Experiment.endpoint_sigma)
    [ 1; 2 ]

let () =
  Alcotest.run "persist"
    [
      ( "codec",
        [
          Alcotest.test_case "unsigned varints" `Quick test_codec_uints;
          Alcotest.test_case "floats bit-exact" `Quick test_codec_floats_bit_exact;
          Alcotest.test_case "strings/arrays/options" `Quick test_codec_strings_arrays_options;
          Alcotest.test_case "corrupt input raises" `Quick test_codec_corrupt_input;
          Alcotest.test_case "fixed64/u8/generic arrays" `Quick test_codec_fixed64_u8_arrays;
          Alcotest.test_case "fnv-1a 64 vectors" `Quick test_fnv64;
        ] );
      ( "entity",
        [
          Alcotest.test_case "kernel" `Quick test_entity_kernel;
          Alcotest.test_case "mesh" `Quick test_entity_mesh;
          Alcotest.test_case "solution + model" `Quick test_entity_solution_and_model;
          Alcotest.test_case "matrix dims overflow" `Quick test_entity_mat_dims_overflow;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip + outcomes" `Quick test_store_roundtrip_and_outcomes;
          Alcotest.test_case "corrupt entry falls back" `Quick
            test_store_corrupt_entry_falls_back;
          Alcotest.test_case "truncated entry falls back" `Quick
            test_store_truncated_entry_falls_back;
          Alcotest.test_case "stale version falls back" `Quick
            test_store_stale_version_falls_back;
          Alcotest.test_case "spec collision not served" `Quick
            test_store_spec_collision_is_safe;
          Alcotest.test_case "injected read error" `Quick test_store_injected_read_error;
          Alcotest.test_case "injected short read" `Quick test_store_injected_short_read;
          Alcotest.test_case "injected torn write" `Quick test_store_injected_torn_write;
          Alcotest.test_case "injected latency" `Quick test_store_injected_latency;
          Alcotest.test_case "fsck classification" `Quick test_store_fsck_classification;
          Alcotest.test_case "fsck repair" `Quick test_store_fsck_repair;
          Alcotest.test_case "fsck GC oldest-first" `Quick test_store_fsck_gc_oldest_first;
          Alcotest.test_case "fsck retired kinds" `Quick test_store_fsck_retired_kinds;
          Alcotest.test_case "concurrent corrupt-delete race" `Quick
            test_store_concurrent_corrupt_delete_race;
          Alcotest.test_case "run_mc bit-identical after roundtrip" `Quick
            test_store_roundtrip_run_mc_bit_identical;
        ] );
    ]
