(** Content-addressed on-disk store for prepared pipeline artifacts.

    Each entry is one file under the store directory, named
    [<kind>-<fnv64(spec)>.bin], where [spec] is the caller's canonical
    description of everything the artifact is a pure function of (kernel
    spec, mesh parameters, retained pairs, …). The file carries a magic
    tag, the store
    format version, the entity kind + version, the full spec string
    (so a 64-bit hash collision is detected, not silently served), the
    payload, and an FNV-1a checksum of the payload.

    Writes are atomic (tmp + rename via {!Util.Fileio}); a crash mid-write
    can never leave a half entry. Reads verify everything written:

    - a {e missing} entry is a plain miss — including an entry another
      domain deleted between our existence check and open (concurrent
      corrupt-entry cleanup makes [ENOENT] an ordinary race, not an
      error);
    - a {e stale} entry (format or entity version mismatch, spec-hash
      collision) is skipped with an [Info]-severity [`Degraded_fallback]
      diagnostic and recomputed — expected after a codec upgrade;
    - a {e corrupt} entry (bad magic, checksum mismatch, decode failure)
      is deleted, reported as a [Warning]-severity [`Degraded_fallback]
      diagnostic, and recomputed — the store degrades to a recompute,
      never to wrong results;
    - a {e failed read} (an I/O error after the file opened, real or
      injected) is reported as a [Warning] and recomputed {e without}
      deleting the file — the entry on disk may be intact; only the read
      of it failed.

    All operations are safe to call concurrently from multiple domains:
    statistics are atomic and file replacement is atomic-rename. *)

type t

val open_ :
  ?diag:Util.Diag.sink -> ?io_faults:Util.Fault.io_plan list -> dir:string -> unit -> t
(** Create [dir] (and parents) if needed. [diag] receives the
    degraded-fallback events described above. [io_faults] installs
    deterministic I/O fault plans for chaos testing: on every read the
    store fires the [Read_error] / [Short_read] / [Latency] plans, on
    every write the [Torn_write] / [Latency] plans (each plan counts its
    own operations; see {!Util.Fault}). Every injected fault is recorded
    as a [Warning]-severity [`Fault_injected] diagnostic and then handled
    by the normal degradation paths — a torn write lands a detectably
    corrupt prefix at the final path, a short read truncates the data
    before decode, a read error fails the read without touching the
    file. *)

val dir : t -> string

val path : t -> 'a Entity.t -> spec:string -> string
(** The file an entry lives at (exposed for tests and corruption
    injection). *)

val put : t -> 'a Entity.t -> spec:string -> 'a -> unit
(** Encode and atomically write the entry. *)

val get : t -> 'a Entity.t -> spec:string -> 'a option
(** Load and fully verify an entry; [None] on missing / stale / corrupt /
    failed read (with the per-case handling described above). *)

type outcome =
  [ `Hit  (** served from disk *)
  | `Miss  (** no entry; computed and stored *)
  | `Recovered
    (** entry was stale, corrupt or unreadable; recomputed and replaced *)
  ]

val find_or_add : t -> 'a Entity.t -> spec:string -> (unit -> 'a) -> 'a * outcome
(** The store's main loop: serve the verified entry, or compute, store and
    return the fresh value. The recompute path stores its result even when
    the entry was merely stale, upgrading the store in place. *)

val remove : t -> 'a Entity.t -> spec:string -> unit
(** Delete an entry if present. *)

type stats = {
  hits : int;
  misses : int;
  recovered : int;  (** stale / corrupt / unreadable entries replaced by recompute *)
  writes : int;
  read_failures : int;  (** reads that failed after open (real or injected) *)
  entries : int;  (** files currently in the store directory *)
  bytes : int;  (** their total size *)
}

val stats : t -> stats
(** Counters since {!open_} plus a directory scan for entries/bytes. *)

(** {1 Offline verification and repair} *)

type fsck_report = {
  scanned : int;  (** [.bin] entries examined *)
  ok : int;  (** entries that passed structural verification *)
  corrupt : int;  (** unreadable / malformed / checksum-failed entries *)
  stale : int;  (** entries with an outdated format or entity version *)
  retired : int;  (** entries of a retired kind *)
  tmp_files : int;  (** orphaned [*.tmp.*] temporaries found *)
  gc_evicted : int;  (** verified entries evicted by the size-capped GC *)
  bytes_before : int;  (** total bytes of scanned entries *)
  bytes_after : int;
      (** bytes that remain (or, without [~repair], would remain) after
          removals and GC *)
}

val fsck :
  ?diag:Util.Diag.sink ->
  ?repair:bool ->
  ?max_bytes:int ->
  dir:string ->
  unit ->
  fsck_report
(** Scan every entry in [dir] and verify it structurally — header magic,
    filename/kind/spec-hash consistency, payload checksum, and version
    currency against the entities this build writes. With [~repair:true]
    (default [false]: report only), corrupt entries are deleted, orphaned
    [*.tmp.*] files from interrupted atomic writes are swept, and — when
    [max_bytes] is given — verified entries are evicted oldest-mtime
    first until the survivors fit under the cap. Stale entries are
    reported but not deleted: they self-heal on next access through
    {!find_or_add}. An entry of a retired kind ([hier-macro],
    [hier-stitch], [dep-edges], [circuit-setup], [netlist], [kle-sampler]:
    kinds that earlier builds wrote and no code reads any more) never
    self-heals, since no access will ever replace it; it is counted
    as [retired] and, with [~repair], deleted. Every action is recorded
    against [diag] ([Warning] for corruption and tmp sweeps, [Info] for
    stale, retired and GC).

    fsck is an {e offline} tool: run it while no server holds the store
    open, otherwise a concurrent writer's live temporary file can be
    swept mid-write. *)

val fsck_problems : fsck_report -> int
(** The findings a repair acts on: corrupt and retired entries, tmp files
    and GC evictions. Stale entries are not among them, since they
    self-heal. [ssta_serve --fsck] exits 1 on a dry run that finds any. *)

val fsck_report_to_string : fsck_report -> string
(** One-line human-readable summary. *)
