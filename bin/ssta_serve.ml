(* SSTA analysis server over stdin/stdout or a Unix-domain socket, backed
   by the persistent KLE model store: solved KLE models survive a restart,
   circuit setups are rebuilt (they take milliseconds). Every connection
   speaks JSON lines: one request object per line in, one response object
   per line out.

   Examples:
     ssta_serve --store /tmp/kle-store            # serve stdin/stdout
     ssta_serve --socket /tmp/ssta.sock &         # daemon on a socket
     ssta_serve --client /tmp/ssta.sock           # pipe stdin lines to it
     echo '{"id":1,"method":"stats"}' | ssta_serve

   JSON protocol (one object per line, responses correlated by "id"):
     {"id":1,"method":"prepare","params":{"circuit":{"name":"c880"}}}
     {"id":2,"method":"run_mc","deadline_ms":60000,
      "params":{"circuit":{"name":"c880"},"sampler":"kle","seed":42,"n":1000}}
     {"id":3,"method":"compare","params":{"circuit":{"name":"c880"},"n":500}}
     {"id":4,"method":"stats"}
     {"id":5,"method":"health"}
     {"id":6,"method":"shutdown"}

   Maintenance:
     ssta_serve --fsck DIR            # verify the store, report problems
     ssta_serve --fsck DIR --repair   # also delete corrupt and retired-kind
                                      # entries, sweep orphaned tmp files,
                                      # GC to --gc-max-bytes *)

open Cmdliner

(* replies may arrive from any worker domain; serialize writes per channel
   and flush per message, so concurrent responses never interleave. A write
   to a disconnected client raises (Sys_error on EPIPE/EBADF, with SIGPIPE
   ignored at startup) — the lock must be released on that path or every
   other worker replying on the connection deadlocks. *)
let line_writer oc =
  let lock = Mutex.create () in
  fun line ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)

(* one connection: submit each non-blank line until end of input or a
   shutdown request *)
let serve_stream server ic oc =
  let reply = line_writer oc in
  try
    while not (Serve.Server.shutdown_requested server) do
      let line = input_line ic in
      if String.trim line <> "" then Serve.Server.submit server line ~reply
    done
  with End_of_file | Sys_error _ -> ()

let serve_channels server ic oc =
  let reader_done = Atomic.make false in
  (* a shutdown request is executed on a worker domain while this thread
     blocks reading; closing the input fd is what unblocks it (the read
     fails) so the drain below can actually start *)
  let watcher =
    Thread.create
      (fun () ->
        while not (Atomic.get reader_done || Serve.Server.shutdown_requested server) do
          Thread.delay 0.1
        done;
        if not (Atomic.get reader_done) then
          try Unix.close (Unix.descr_of_in_channel ic)
          with Unix.Unix_error _ | Sys_error _ -> ())
      ()
  in
  serve_stream server ic oc;
  Atomic.set reader_done true;
  Serve.Server.drain server;
  Thread.join watcher

(* a connection's fd, with close/shutdown serialized so the drain-time
   nudge below can never race the handler's own close (or hit a recycled
   fd number) *)
type conn = { fd : Unix.file_descr; lock : Mutex.t; mutable closed : bool }

let conn_close c =
  Mutex.protect c.lock (fun () ->
      if not c.closed then begin
        c.closed <- true;
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end)

(* unblock a reader stuck in a blocking read: half-close the read side so
   it returns EOF, leaving the write side usable for replies *)
let conn_nudge c =
  Mutex.protect c.lock (fun () ->
      if not c.closed then
        try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())

let serve_socket server path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  Printf.printf "ssta_serve: listening on %s\n%!" path;
  (* one lightweight thread per connection reads messages; all execution
     happens on the server's worker domains *)
  let handle c =
    let ic = Unix.in_channel_of_descr c.fd in
    let oc = Unix.out_channel_of_descr c.fd in
    serve_stream server ic oc;
    conn_close c
  in
  let threads = ref [] in
  let conns = ref [] in
  (try
     while not (Serve.Server.shutdown_requested server) do
       (* wake up periodically so a shutdown request also stops accept *)
       match Unix.select [ sock ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ ->
           let fd, _ = Unix.accept sock in
           let c = { fd; lock = Mutex.create (); closed = false } in
           conns := c :: !conns;
           threads := Thread.create handle c :: !threads
     done
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  (* stop intake first so late messages get typed shutting_down replies,
     then unblock handlers parked on idle connections so the join below
     terminates, then let queued work finish *)
  Serve.Server.begin_drain server;
  List.iter conn_nudge !conns;
  List.iter Thread.join !threads;
  Serve.Server.drain server;
  List.iter conn_close !conns;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* client mode: connect to a serving socket, forward stdin lines through
   the retrying Serve.Client (per-request timeout, bounded retries with
   backoff, circuit breaker), print one JSON response line per request in
   request order. Only the server validates a request; a line that is not
   JSON at all is answered here with the parse_error the server would
   send. A typed error prints with the offending params key the server
   named in its [field]. *)
let run_client path timeout_s =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect sock (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "ssta_serve --client: cannot connect to %s: %s\n" path
       (Unix.error_message e);
     exit 1);
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  (* the socket delivers replies in completion order; correlate them back
     to the waiting call by id *)
  let pending : (string, string -> unit) Hashtbl.t = Hashtbl.create 8 in
  let pending_lock = Mutex.create () in
  let register key reply =
    Mutex.protect pending_lock (fun () -> Hashtbl.replace pending key reply)
  in
  let take key =
    Mutex.protect pending_lock (fun () ->
        match Hashtbl.find_opt pending key with
        | Some cb ->
            Hashtbl.remove pending key;
            Some cb
        | None -> None)
  in
  let id_of json = Option.value (Serve.Jsonx.member "id" json) ~default:Serve.Jsonx.Null in
  (* the reply tree handed to the current call, for what a typed failure
     does not carry *)
  let last_reply = Atomic.make Serve.Jsonx.Null in
  let reader =
    Thread.create
      (fun () ->
        try
          while true do
            let line = input_line ic in
            let tree = Result.value (Serve.Jsonx.parse line) ~default:Serve.Jsonx.Null in
            match take (Serve.Jsonx.to_string (id_of tree)) with
            | Some cb ->
                Atomic.set last_reply tree;
                cb line
            | None -> ()
          done
        with End_of_file | Sys_error _ -> ())
      ()
  in
  let write = line_writer oc in
  (* stdin lines are sent one at a time (each call returns before the next
     line is read), so every attempt belongs to the current line's id *)
  let current_key = ref "null" in
  let transport message ~reply =
    register !current_key reply;
    write message
  in
  let client =
    Serve.Client.create
      ~policy:{ Serve.Client.default_policy with Serve.Client.timeout_s = Some timeout_s }
      transport
  in
  let failures = ref 0 in
  let print json =
    print_endline (Serve.Jsonx.to_string json);
    flush stdout
  in
  (* re-encoding for stdout must not strip the correlation ID the server
     echoed: a caller that tagged its request with req_id grep's for it in
     our output *)
  let print_result id ?req_id = function
    | Ok payload -> print (Serve.Protocol.ok_response ~id ?req_id payload)
    | Error (Serve.Client.Protocol_error (code, msg)) ->
        let field =
          Option.bind
            (Option.bind (Serve.Jsonx.member "error" (Atomic.get last_reply))
               (Serve.Jsonx.member "field"))
            Serve.Jsonx.as_str
        in
        print (Serve.Protocol.error_response ~id ?req_id ?field code msg)
    | Error f ->
        incr failures;
        Printf.eprintf "ssta_serve --client: request id=%s failed: %s\n%!"
          (Serve.Jsonx.to_string id)
          (Serve.Client.failure_to_string f)
  in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then
         match Serve.Jsonx.parse line with
         | Error msg ->
             print
               (Serve.Protocol.error_response ~id:Serve.Jsonx.Null Serve.Protocol.Parse_error
                  msg)
         | Ok json ->
             let id = id_of json in
             current_key := Serve.Jsonx.to_string id;
             print_result id
               ?req_id:(Option.bind (Serve.Jsonx.member "req_id" json) Serve.Jsonx.as_str)
               (Serve.Client.call client (Serve.Jsonx.to_string json))
     done
   with End_of_file -> ());
  (try Unix.shutdown sock Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  (try Thread.join reader with _ -> ());
  (try Unix.close sock with Unix.Unix_error _ -> ());
  if !failures > 0 then exit 1

(* offline store verification / repair *)
let run_fsck dir repair gc_max_bytes =
  let diag = Util.Diag.create () in
  let report = Persist.Store.fsck ~diag ~repair ?max_bytes:gc_max_bytes ~dir () in
  List.iter
    (fun e -> Printf.printf "%s\n" (Util.Diag.to_string e))
    (Util.Diag.events diag);
  Printf.printf "fsck %s: %s%s\n" dir
    (Persist.Store.fsck_report_to_string report)
    (if repair then "" else " (dry run; use --repair to fix)");
  if Persist.Store.fsck_problems report > 0 && not repair then exit 1

(* one JSON object per executed request on stderr; worker domains share
   the sink, so writes are serialized and flushed per line *)
let json_log_sink () =
  let lock = Mutex.create () in
  fun json ->
    Mutex.protect lock (fun () ->
        output_string stderr (Serve.Jsonx.to_string json);
        output_char stderr '\n';
        flush stderr)

let run store_dir socket client fsck repair gc_max_bytes timeout_s cache_entries
    queue_capacity workers jobs seed max_area_fraction drain_timeout trace_file
    stats_file slow_ms log_json =
  (* a client that disconnects mid-reply must surface as a write error on
     that connection, not kill the process with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match (fsck, client) with
  | Some dir, _ -> run_fsck dir repair gc_max_bytes
  | None, Some path -> run_client path timeout_s
  | None, None ->
      if trace_file <> None then Util.Trace.enable ();
      let config =
        {
          Serve.Server.default_config with
          Serve.Server.store_dir;
          cache_entries;
          queue_capacity;
          workers;
          jobs;
          placement_seed = seed;
          kle =
            { Ssta.Algorithm2.paper_config with Ssta.Algorithm2.max_area_fraction };
          drain_timeout_s = drain_timeout;
          slow_ms;
          request_log = (if log_json then Some (json_log_sink ()) else None);
        }
      in
      let server = Serve.Server.create config in
      (match socket with
      | Some path -> serve_socket server path
      | None -> serve_channels server stdin stdout);
      (match stats_file with
      | Some path ->
          Util.Fileio.write_atomic path
            (Serve.Jsonx.to_string (Serve.Server.stats_payload server) ^ "\n")
      | None -> ());
      (match trace_file with
      | Some path -> Util.Trace.write_chrome_trace path
      | None -> ());
      let diag = Serve.Server.diagnostics server in
      if Util.Diag.count ~min_severity:Util.Diag.Warning diag > 0 then begin
        Printf.eprintf "diagnostics:\n";
        List.iter
          (fun e ->
            if Util.Diag.severity_rank e.Util.Diag.severity >= 1 then
              Printf.eprintf "  %s\n" (Util.Diag.to_string e))
          (Util.Diag.events diag)
      end

let store_arg =
  let doc =
    "Persist solved KLE models under $(docv), so a restarted server skips the eigensolve. \
     Circuit setups stay in memory and are rebuilt after a restart."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let socket_arg =
  let doc = "Serve connections on a Unix-domain socket at $(docv) instead of stdin/stdout." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let client_arg =
  let doc =
    "Client mode: connect to the serving socket at $(docv), forward stdin lines, print responses. \
     Requests go through the retrying client (per-request timeout, bounded retries with backoff \
     and jitter, circuit breaker); responses print in request order."
  in
  Arg.(value & opt (some string) None & info [ "client" ] ~docv:"PATH" ~doc)

let fsck_arg =
  let doc =
    "Verify the store at $(docv): header magic, filename/kind/spec-hash consistency, payload \
     checksums, entity-version currency, orphaned temporary files. Dry run unless --repair is \
     given; exits 1 when problems are found in a dry run."
  in
  Arg.(value & opt (some string) None & info [ "fsck" ] ~docv:"DIR" ~doc)

let repair_arg =
  let doc =
    "With --fsck: delete corrupt entries and entries of retired kinds, sweep orphaned tmp \
     files, and apply --gc-max-bytes."
  in
  Arg.(value & flag & info [ "repair" ] ~doc)

let gc_arg =
  let doc =
    "With --fsck: evict verified entries oldest-first until the store fits under $(docv) bytes."
  in
  Arg.(value & opt (some int) None & info [ "gc-max-bytes" ] ~docv:"BYTES" ~doc)

let timeout_arg =
  let doc = "With --client: per-attempt reply timeout in seconds." in
  Arg.(value & opt float 600.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let cache_arg =
  let doc = "In-memory model cache capacity (entries)." in
  Arg.(value & opt int 32 & info [ "cache-entries" ] ~docv:"N" ~doc)

let queue_arg =
  let doc = "Bounded job-queue capacity; beyond it requests are rejected as overloaded." in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let workers_arg =
  let doc = "Worker domains executing requests concurrently." in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc = "Compute fan-out within one request (domains); default sequential." in
  Arg.(value & opt (some int) (Some 1) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Placement seed for circuit setups." in
  Arg.(value & opt int 1 & info [ "placement-seed" ] ~docv:"N" ~doc)

let mesh_area_arg =
  let doc =
    "Maximum triangle area as a fraction of the die (mesh resolution). The paper's \
     experiments use 0.001; larger values give a coarser, much cheaper eigensolve \
     (useful for smoke tests)."
  in
  Arg.(value & opt float 0.001 & info [ "max-area-fraction" ] ~docv:"F" ~doc)

let drain_timeout_arg =
  let doc =
    "Bound the shutdown drain: if the workers have not finished within $(docv) seconds they are \
     detached with a warning diagnostic instead of hanging shutdown forever."
  in
  Arg.(value & opt (some float) (Some 30.0) & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)

let trace_arg =
  let doc = "Write a Chrome trace of the serving run to $(docv) on exit." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let stats_arg =
  let doc = "Write final server statistics (JSON) to $(docv) on exit." in
  Arg.(value & opt (some string) None & info [ "stats-file" ] ~docv:"PATH" ~doc)

let slow_ms_arg =
  let doc =
    "Slow-request threshold in milliseconds for the $(b,debug) ring buffer; 0 admits every \
     request (the ring keeps the most recent)."
  in
  Arg.(value & opt float 0.0 & info [ "slow-ms" ] ~docv:"MS" ~doc)

let log_json_arg =
  let doc = "Emit one structured JSON log line per executed request on stderr." in
  Arg.(value & flag & info [ "log-json" ] ~doc)

let cmd =
  let doc = "concurrent SSTA analysis server with a persistent KLE model store" in
  Cmd.v
    (Cmd.info "ssta_serve" ~doc)
    Term.(
      const run $ store_arg $ socket_arg $ client_arg $ fsck_arg $ repair_arg $ gc_arg
      $ timeout_arg $ cache_arg $ queue_arg $ workers_arg $ jobs_arg
      $ seed_arg $ mesh_area_arg $ drain_timeout_arg $ trace_arg $ stats_arg
      $ slow_ms_arg $ log_json_arg)

let () = exit (Cmd.eval cmd)
