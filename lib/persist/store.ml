(* bumped when the header layout changes; part of every entry's identity
   (a mismatch makes the entry stale) *)
let format_version = 1
let magic = "KLST"

type t = {
  dir : string;
  diag : Util.Diag.sink option;
  io_faults : Util.Fault.io_plan list;
  hits : int Atomic.t;
  misses : int Atomic.t;
  recovered : int Atomic.t;
  writes : int Atomic.t;
  read_failures : int Atomic.t;
}

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?diag ?(io_faults = []) ~dir () =
  mkdir_p dir;
  {
    dir;
    diag;
    io_faults;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    recovered = Atomic.make 0;
    writes = Atomic.make 0;
    read_failures = Atomic.make 0;
  }

let dir t = t.dir
let key ~spec = Codec.fnv64_hex spec

let path t (entity : _ Entity.t) ~spec =
  Filename.concat t.dir (Printf.sprintf "%s-%s.bin" entity.Entity.kind (key ~spec))

(* file = magic, format_version, kind, entity version, spec,
   length-prefixed payload, FNV-1a 64 checksum of the payload *)
let encode_file (entity : _ Entity.t) ~spec v =
  let payload =
    let b = Codec.writer () in
    entity.Entity.encode b v;
    Codec.contents b
  in
  let b = Codec.writer () in
  String.iter (fun c -> Codec.write_u8 b (Char.code c)) magic;
  Codec.write_uint b format_version;
  Codec.write_string b entity.Entity.kind;
  Codec.write_uint b entity.Entity.version;
  Codec.write_string b spec;
  Codec.write_string b payload;
  Codec.write_fixed64 b (Codec.fnv64 payload);
  Codec.contents b

let record_fault t ~file kind =
  Util.Diag.record ?sink:t.diag Util.Diag.Warning `Fault_injected ~stage:"persist.store"
    (Printf.sprintf "%s: injected %s" file (Util.Fault.io_kind_name kind))

(* Fire every configured I/O plan that applies to this operation class
   ([`Read] or [`Write]); each plan counts its own calls independently.
   Returns the latency to act out (summed) and the fault to simulate. *)
let fire_io t ~file op =
  let latency = ref 0.0 and fault = ref None in
  List.iter
    (fun p ->
      let applies =
        match (Util.Fault.kind p, op) with
        | Util.Fault.Latency _, _ -> true
        | (Util.Fault.Read_error | Util.Fault.Short_read), `Read -> true
        | Util.Fault.Torn_write, `Write -> true
        | _ -> false
      in
      if applies then
        match Util.Fault.fire p with
        | None -> ()
        | Some (Util.Fault.Latency ms) ->
            record_fault t ~file (Util.Fault.Latency ms);
            latency := !latency +. (ms /. 1000.)
        | Some k ->
            record_fault t ~file k;
            if !fault = None then fault := Some k)
    t.io_faults;
  if !latency > 0.0 then Unix.sleepf !latency;
  !fault

let put t entity ~spec v =
  let file = path t entity ~spec in
  let data = encode_file entity ~spec v in
  (match fire_io t ~file `Write with
  | Some Util.Fault.Torn_write ->
      (* simulate a non-atomic writer dying mid-write: a prefix of the
         entry lands at the final path directly, bypassing tmp+rename.
         The next read must detect it as corrupt, never serve it. *)
      let oc = open_out_bin file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (String.sub data 0 (String.length data / 2)))
  | Some _ | None -> Util.Fileio.write_atomic file data);
  Atomic.incr t.writes

let decode_file (entity : _ Entity.t) ~spec data =
  match
    let r = Codec.reader data in
    if Codec.remaining r < String.length magic then Codec.(raise (Error "truncated header"));
    let m = Bytes.create (String.length magic) in
    for i = 0 to Bytes.length m - 1 do
      Bytes.set m i (Char.chr (Codec.read_u8 r))
    done;
    if Bytes.to_string m <> magic then Codec.(raise (Error "bad magic"));
    let fmt = Codec.read_uint r in
    if fmt <> format_version then `Stale (Printf.sprintf "format version %d (want %d)" fmt format_version)
    else begin
      let kind = Codec.read_string r in
      if kind <> entity.Entity.kind then
        `Corrupt (Printf.sprintf "entry kind %S (want %S)" kind entity.Entity.kind)
      else begin
        let version = Codec.read_uint r in
        if version <> entity.Entity.version then
          `Stale (Printf.sprintf "entity version %d (want %d)" version entity.Entity.version)
        else begin
          let stored_spec = Codec.read_string r in
          if stored_spec <> spec then
            (* same 64-bit hash, different spec: treat as stale, not corrupt *)
            `Stale "spec mismatch (hash collision)"
          else begin
            let payload = Codec.read_string r in
            let checksum = Codec.read_fixed64 r in
            Codec.expect_end r;
            if Codec.fnv64 payload <> checksum then `Corrupt "checksum mismatch"
            else begin
              let pr = Codec.reader payload in
              let v = entity.Entity.decode pr in
              Codec.expect_end pr;
              `Ok v
            end
          end
        end
      end
    end
  with
  | result -> result
  | exception Codec.Error msg -> `Corrupt msg

let record t severity ~file msg =
  Util.Diag.record ?sink:t.diag severity `Degraded_fallback ~stage:"persist.store"
    (Printf.sprintf "%s: %s — falling back to recompute" file msg)

(* Read the whole entry, separating "no entry" from "the read itself
   failed". An open failure is a plain miss — under concurrent access
   another domain may legitimately have deleted a corrupt entry between
   our existence check and open (ENOENT is not an error). A failure
   *after* a successful open (real EIO, or an injected [Read_error])
   means the entry may well be intact on disk: the caller must fall back
   to recompute for this request but must NOT delete the file. *)
let read_file t file =
  match open_in_bin file with
  | exception Sys_error _ -> `Absent
  | ic -> (
      let data =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match fire_io t ~file `Read with
            | Some Util.Fault.Read_error -> `Read_failed "injected read error"
            | Some Util.Fault.Short_read ->
                let n = in_channel_length ic in
                `Data (really_input_string ic (n / 2))
            | Some _ | None -> `Data (really_input_string ic (in_channel_length ic)))
      in
      match data with
      | exception Sys_error msg -> `Read_failed msg
      | exception End_of_file -> `Read_failed "unexpected end of file"
      | r -> r)

let load t entity ~spec =
  let file = path t entity ~spec in
  match read_file t file with
  | `Absent -> `Absent
  | `Read_failed msg ->
      Atomic.incr t.read_failures;
      record t Util.Diag.Warning ~file (Printf.sprintf "read failed: %s" msg);
      `Read_failed msg
  | `Data data -> (
      match decode_file entity ~spec data with
      | `Ok v -> `Ok v
      | `Stale msg ->
          record t Util.Diag.Info ~file msg;
          `Stale msg
      | `Corrupt msg ->
          record t Util.Diag.Warning ~file msg;
          (try Sys.remove file with Sys_error _ -> ());
          `Corrupt msg)

let get t entity ~spec =
  match load t entity ~spec with
  | `Ok v ->
      Atomic.incr t.hits;
      Some v
  | `Absent | `Stale _ | `Corrupt _ | `Read_failed _ -> None

type outcome = [ `Hit | `Miss | `Recovered ]

let find_or_add t entity ~spec compute =
  match load t entity ~spec with
  | `Ok v ->
      Atomic.incr t.hits;
      (v, `Hit)
  | (`Absent | `Stale _ | `Corrupt _ | `Read_failed _) as miss ->
      let outcome =
        match miss with
        | `Absent ->
            Atomic.incr t.misses;
            `Miss
        | `Stale _ | `Corrupt _ | `Read_failed _ ->
            Atomic.incr t.recovered;
            `Recovered
      in
      let v = compute () in
      put t entity ~spec v;
      (v, outcome)

let remove t entity ~spec =
  try Sys.remove (path t entity ~spec) with Sys_error _ -> ()

type stats = {
  hits : int;
  misses : int;
  recovered : int;
  writes : int;
  read_failures : int;
  entries : int;
  bytes : int;
}

let stats t =
  let entries = ref 0 and bytes = ref 0 in
  (try
     Array.iter
       (fun name ->
         if Filename.check_suffix name ".bin" then begin
           incr entries;
           match (Unix.stat (Filename.concat t.dir name)).Unix.st_size with
           | size -> bytes := !bytes + size
           | exception Unix.Unix_error _ -> ()
         end)
       (Sys.readdir t.dir)
   with Sys_error _ -> ());
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    recovered = Atomic.get t.recovered;
    writes = Atomic.get t.writes;
    read_failures = Atomic.get t.read_failures;
    entries = !entries;
    bytes = !bytes;
  }

(* ------------------------------------------------------------------ *)
(* fsck: offline scan / verify / repair                               *)
(* ------------------------------------------------------------------ *)

type fsck_report = {
  scanned : int;
  ok : int;
  corrupt : int;
  stale : int;
  retired : int;
  tmp_files : int;
  gc_evicted : int;
  bytes_before : int;
  bytes_after : int;
}

(* the entity versions this build writes, keyed by file-kind tag — an
   entry whose kind is known but whose version differs is stale (will be
   recomputed on next access), not corrupt *)
let current_versions =
  [
    (Entity.kernel.Entity.kind, Entity.kernel.Entity.version);
    (Entity.mesh.Entity.kind, Entity.mesh.Entity.version);
    (Entity.solution.Entity.kind, Entity.solution.Entity.version);
    (Entity.model.Entity.kind, Entity.model.Entity.version);
  ]

(* kinds earlier builds wrote and this one never reads again (block macros,
   stitched results and their dependency edges; circuit setups, netlists
   and prepared samplers, which are cheaper to rebuild than to store):
   nothing will look them up, so unlike a stale entry they cannot self-heal
   and [~repair] removes them *)
let retired_kinds =
  [ "hier-macro"; "hier-stitch"; "dep-edges"; "circuit-setup"; "netlist"; "kle-sampler" ]

(* Structural verification without an entity decoder: header fields,
   filename consistency (kind prefix and spec hash), payload checksum.
   Payload *semantics* are still re-validated by the entity decoder on
   the next [load]; fsck guarantees that whatever survives it will at
   least parse to the checksum. *)
let verify_entry ~fname data =
  let base = Filename.chop_suffix fname ".bin" in
  let name_kind, name_hash =
    match String.rindex_opt base '-' with
    | Some i -> (String.sub base 0 i, String.sub base (i + 1) (String.length base - i - 1))
    | None -> ("", "")
  in
  match
    let r = Codec.reader data in
    if Codec.remaining r < String.length magic then Codec.(raise (Error "truncated header"));
    let m = Bytes.create (String.length magic) in
    for i = 0 to Bytes.length m - 1 do
      Bytes.set m i (Char.chr (Codec.read_u8 r))
    done;
    if Bytes.to_string m <> magic then Codec.(raise (Error "bad magic"));
    let fmt = Codec.read_uint r in
    let kind = Codec.read_string r in
    let version = Codec.read_uint r in
    let spec = Codec.read_string r in
    let payload = Codec.read_string r in
    let checksum = Codec.read_fixed64 r in
    Codec.expect_end r;
    if kind <> name_kind then
      `Corrupt (Printf.sprintf "entry kind %S does not match filename %S" kind name_kind)
    else if Codec.fnv64_hex spec <> name_hash then
      `Corrupt (Printf.sprintf "spec hash %s does not match filename %s" (Codec.fnv64_hex spec) name_hash)
    else if Codec.fnv64 payload <> checksum then `Corrupt "checksum mismatch"
    else if List.mem kind retired_kinds then `Retired kind
    else if fmt <> format_version then
      `Stale (Printf.sprintf "format version %d (want %d)" fmt format_version)
    else begin
      match List.assoc_opt kind current_versions with
      | Some v when v <> version -> `Stale (Printf.sprintf "entity version %d (want %d)" version v)
      | Some _ | None -> `Ok
    end
  with
  | result -> result
  | exception Codec.Error msg -> `Corrupt msg

let is_tmp_file name =
  (* Util.Fileio temporaries are named <target>.tmp.<pid>.<counter> *)
  let rec has_tmp_part = function
    | [] -> false
    | "tmp" :: _ :: _ -> true
    | _ :: rest -> has_tmp_part rest
  in
  has_tmp_part (String.split_on_char '.' name)

let fsck ?diag ?(repair = false) ?max_bytes ~dir () =
  let note severity msg =
    Util.Diag.record ?sink:diag severity `Degraded_fallback ~stage:"persist.fsck" msg
  in
  let scanned = ref 0 and ok = ref 0 and corrupt = ref 0 and stale = ref 0 in
  let retired = ref 0 in
  let tmp_files = ref 0 and gc_evicted = ref 0 in
  let bytes_before = ref 0 and bytes_after = ref 0 in
  (* mtime + size of entries that survive verification, for the GC pass *)
  let survivors = ref [] in
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort String.compare names;
  Array.iter
    (fun name ->
      let file = Filename.concat dir name in
      if is_tmp_file name then begin
        incr tmp_files;
        note Util.Diag.Warning (Printf.sprintf "%s: orphaned temporary file%s" file
             (if repair then " — removed" else ""));
        if repair then try Sys.remove file with Sys_error _ -> ()
      end
      else if Filename.check_suffix name ".bin" then begin
        incr scanned;
        match
          let ic = open_in_bin file in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | exception Sys_error msg ->
            incr corrupt;
            note Util.Diag.Warning (Printf.sprintf "%s: unreadable (%s)%s" file msg
                 (if repair then " — removed" else ""));
            if repair then ( try Sys.remove file with Sys_error _ -> ())
        | data -> (
            bytes_before := !bytes_before + String.length data;
            match verify_entry ~fname:name data with
            | `Ok ->
                incr ok;
                let mtime =
                  match Unix.stat file with
                  | st -> st.Unix.st_mtime
                  | exception Unix.Unix_error _ -> 0.0
                in
                survivors := (file, mtime, String.length data) :: !survivors
            | `Stale msg ->
                incr stale;
                (* stale entries self-heal on the next access; fsck only reports them *)
                note Util.Diag.Info (Printf.sprintf "%s: stale (%s)" file msg);
                bytes_after := !bytes_after + String.length data
            | `Retired kind ->
                incr retired;
                note Util.Diag.Info (Printf.sprintf "%s: retired kind %S%s" file kind
                     (if repair then " — removed" else ""));
                if repair then ( try Sys.remove file with Sys_error _ -> ())
            | `Corrupt msg ->
                incr corrupt;
                note Util.Diag.Warning (Printf.sprintf "%s: corrupt (%s)%s" file msg
                     (if repair then " — removed" else ""));
                if repair then try Sys.remove file with Sys_error _ -> ())
      end)
    names;
  (* size-capped GC: evict verified entries oldest-mtime first until the
     surviving entries fit under the cap *)
  let kept = ref 0 in
  List.iter (fun (_, _, size) -> kept := !kept + size) !survivors;
  (match max_bytes with
  | Some cap when !kept > cap ->
      let by_age =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) !survivors
      in
      List.iter
        (fun (file, _, size) ->
          if !kept > cap then begin
            incr gc_evicted;
            kept := !kept - size;
            note Util.Diag.Info (Printf.sprintf "%s: evicted by size-capped GC%s" file
                 (if repair then "" else " (would be)"));
            if repair then try Sys.remove file with Sys_error _ -> ()
          end)
        by_age
  | Some _ | None -> ());
  bytes_after := !bytes_after + !kept;
  {
    scanned = !scanned;
    ok = !ok;
    corrupt = !corrupt;
    stale = !stale;
    retired = !retired;
    tmp_files = !tmp_files;
    gc_evicted = !gc_evicted;
    bytes_before = !bytes_before;
    bytes_after = !bytes_after;
  }

let fsck_problems r = r.corrupt + r.retired + r.tmp_files + r.gc_evicted

let fsck_report_to_string r =
  Printf.sprintf
    "scanned %d entries: %d ok, %d corrupt, %d stale, %d retired, %d tmp file%s, %d GC-evicted; %d -> %d bytes"
    r.scanned r.ok r.corrupt r.stale r.retired r.tmp_files
    (if r.tmp_files = 1 then "" else "s")
    r.gc_evicted r.bytes_before r.bytes_after
