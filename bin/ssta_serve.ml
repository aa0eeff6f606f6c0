(* SSTA analysis server over stdin/stdout or a Unix-domain socket, backed
   by the persistent KLE model store. Speaks two wires on the same port:
   JSON lines, and the length-prefixed binary protocol (Serve.Wire) —
   detected per connection from the first byte (0xB5 never starts JSON).

   Examples:
     ssta_serve --store /tmp/kle-store            # serve stdin/stdout
     ssta_serve --socket /tmp/ssta.sock &         # daemon on a socket
     ssta_serve --socket /tmp/ssta.sock --router 4 &
                                                  # shard across 4 processes
     ssta_serve --client /tmp/ssta.sock           # pipe stdin lines to it
     ssta_serve --client /tmp/ssta.sock --binary  # same, binary wire
     echo '{"id":1,"method":"stats"}' | ssta_serve

   JSON protocol (one object per line, responses correlated by "id"):
     {"id":1,"method":"prepare","params":{"circuit":{"name":"c880"}}}
     {"id":2,"method":"run_mc","deadline_ms":60000,
      "params":{"circuit":{"name":"c880"},"sampler":"kle","seed":42,"n":1000}}
     {"id":3,"method":"compare","params":{"circuit":{"name":"c880"},"n":500}}
     {"id":4,"method":"stats"}
     {"id":5,"method":"health"}
     {"id":6,"method":"shutdown"}

   Router mode (--router N): this process becomes a consistent-hash front
   for N shard subprocesses (each a plain ssta_serve on <socket>.shard-<i>,
   all sharing one --store). Shards are supervised — a crashed shard is
   respawned with capped backoff and is unhealthy (candidates fail over to
   the next ring replica) while down.

   Maintenance:
     ssta_serve --fsck DIR            # verify the store, report problems
     ssta_serve --fsck DIR --repair   # also delete corrupt entries, sweep
                                      # orphaned tmp files, GC to --gc-max-bytes *)

open Cmdliner

(* replies may arrive from any worker domain; serialize writes per channel
   and flush per message, so concurrent responses never interleave. A write
   to a disconnected client raises (Sys_error on EPIPE/EBADF, with SIGPIPE
   ignored at startup) — the lock must be released on that path or every
   other worker replying on the connection deadlocks. *)
let message_writer wire oc =
  (* a JSON message ends at its newline; a binary frame carries its length *)
  let terminator = match wire with `Json -> "\n" | `Binary -> "" in
  let lock = Mutex.create () in
  fun message ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        output_string oc message;
        output_string oc terminator;
        flush oc)

(* what a connection handler needs from the thing it fronts — a single
   Serve.Server or a Serve.Router over shard processes *)
type frontend = {
  fsubmit : wire:[ `Json | `Binary ] -> string -> reply:(string -> unit) -> unit;
  fstop : unit -> bool;  (* shutdown requested: stop reading *)
}

(* one connection, either wire: sniff the first byte. 0xB5 (Wire.magic0)
   never begins a JSON-lines request, so it commits the connection to the
   binary wire; anything else starts the first JSON line. *)
let serve_stream fe ic oc =
  match input_char ic with
  | exception (End_of_file | Sys_error _) -> ()
  | first when first = Serve.Wire.magic0 ->
      let reply = message_writer `Binary oc in
      let magic_consumed = ref true in
      (try
         while not (fe.fstop ()) do
           match Serve.Wire.read_frame ~magic_consumed:!magic_consumed ic with
           | Error `Eof -> raise End_of_file
           | Error (`Corrupt msg) ->
               (* framing is lost and cannot be resynchronised: answer once,
                  then drop the connection *)
               reply
                 (Serve.Wire.encode `Binary
                    (Serve.Protocol.error_response ~id:Serve.Jsonx.Null
                       Serve.Protocol.Parse_error msg));
               raise End_of_file
           | Ok payload ->
               magic_consumed := false;
               fe.fsubmit ~wire:`Binary payload ~reply
         done
       with End_of_file | Sys_error _ -> ())
  | first ->
      let reply = message_writer `Json oc in
      let pending_first = ref (Some first) in
      let next_line () =
        match !pending_first with
        | Some '\n' ->
            pending_first := None;
            ""
        | Some c ->
            pending_first := None;
            String.make 1 c ^ input_line ic
        | None -> input_line ic
      in
      (try
         while not (fe.fstop ()) do
           let line = next_line () in
           if String.trim line <> "" then fe.fsubmit ~wire:`Json line ~reply
         done
       with End_of_file | Sys_error _ -> ())

let serve_channels fe ~drain ic oc =
  let reader_done = Atomic.make false in
  (* a shutdown request is executed on a worker domain while this thread
     blocks reading; closing the input fd is what unblocks it (the read
     fails) so the drain below can actually start *)
  let watcher =
    Thread.create
      (fun () ->
        while not (Atomic.get reader_done || fe.fstop ()) do
          Thread.delay 0.1
        done;
        if not (Atomic.get reader_done) then
          try Unix.close (Unix.descr_of_in_channel ic)
          with Unix.Unix_error _ | Sys_error _ -> ())
      ()
  in
  serve_stream fe ic oc;
  Atomic.set reader_done true;
  drain ();
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

let serve_socket fe ~begin_drain ~drain path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  Printf.printf "ssta_serve: listening on %s\n%!" path;
  (* one lightweight thread per connection reads messages; all execution
     happens on the worker domains behind the frontend *)
  let handle c =
    let ic = Unix.in_channel_of_descr c.fd in
    let oc = Unix.out_channel_of_descr c.fd in
    serve_stream fe ic oc;
    conn_close c
  in
  let threads = ref [] in
  let conns = ref [] in
  (try
     while not (fe.fstop ()) do
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
  begin_drain ();
  List.iter conn_nudge !conns;
  List.iter Thread.join !threads;
  drain ();
  List.iter conn_close !conns;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* router mode: shard subprocess supervision and binary connections *)

let shard_socket_path base i = Printf.sprintf "%s.shard-%d" base i

(* one live binary connection to a shard process. Requests multiplex over
   it with rewritten integer ids; the original client id never leaves the
   router (Router.submit re-attaches it when replying). *)
type shard_link = {
  lfd : Unix.file_descr;
  loc : out_channel;
  wlock : Mutex.t;
  lpending :
    (int, (Serve.Jsonx.t, Serve.Protocol.error_code * string) result -> unit) Hashtbl.t;
  mutable lnext : int;
}

type shard = {
  index : int;
  spath : string;
  argv : string array;
  slock : Mutex.t;  (* guards link, pid and the link's pending table *)
  mutable link : shard_link option;
  mutable pid : int option;
}

(* raised from the backend's send so Router.submit fails over to the next
   ring replica *)
exception Shard_unavailable

let shard_send shard request ~reply =
  match Mutex.protect shard.slock (fun () -> shard.link) with
  | None -> raise Shard_unavailable
  | Some link -> (
      let id =
        Mutex.protect shard.slock (fun () ->
            let id = link.lnext in
            link.lnext <- id + 1;
            Hashtbl.replace link.lpending id reply;
            id)
      in
      let frame =
        Serve.Wire.encode `Binary
          (Serve.Protocol.encode_request
             { request with Serve.Protocol.id = Serve.Jsonx.Num (float_of_int id) })
      in
      try
        Mutex.protect link.wlock (fun () ->
            output_string link.loc frame;
            flush link.loc)
      with Sys_error _ | Unix.Unix_error _ ->
        Mutex.protect shard.slock (fun () -> Hashtbl.remove link.lpending id);
        raise Shard_unavailable)

let shard_reader shard link () =
  let ic = Unix.in_channel_of_descr link.lfd in
  (try
     let stop = ref false in
     while not !stop do
       match Serve.Wire.read_frame ic with
       | Error (`Eof | `Corrupt _) -> stop := true
       | Ok payload -> (
           match
             Result.bind (Serve.Wire.decode `Binary payload) Serve.Protocol.decode_response
           with
           | Error _ -> ()  (* one bad payload; framing is still intact *)
           | Ok (id_json, _req_id, result) -> (
               let cb =
                 Mutex.protect shard.slock (fun () ->
                     match Serve.Jsonx.as_num id_json with
                     | None -> None
                     | Some f -> (
                         let id = int_of_float f in
                         match Hashtbl.find_opt link.lpending id with
                         | Some cb ->
                             Hashtbl.remove link.lpending id;
                             Some cb
                         | None -> None))
               in
               match cb with Some cb -> cb result | None -> ()))
     done
   with End_of_file | Sys_error _ -> ());
  (* connection gone: everything in flight on it gets a typed error — the
     client's retry policy owns any retry decision *)
  let orphans =
    Mutex.protect shard.slock (fun () ->
        (match shard.link with Some l when l == link -> shard.link <- None | _ -> ());
        let cbs = Hashtbl.fold (fun _ cb acc -> cb :: acc) link.lpending [] in
        Hashtbl.reset link.lpending;
        cbs)
  in
  List.iter
    (fun cb -> cb (Error (Serve.Protocol.Internal_error, "shard connection lost")))
    orphans

let connect_shard spath ~attempts =
  let rec go n =
    if n >= attempts then None
    else
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX spath) with
      | () -> Some fd
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Thread.delay 0.05;
          go (n + 1)
  in
  go 0

(* spawn / connect / waitpid / restart-with-capped-backoff, until draining *)
let supervise ~draining shard =
  let backoff = ref 0.1 in
  while not (Atomic.get draining) do
    (try Unix.unlink shard.spath with Unix.Unix_error _ -> ());
    match
      Unix.create_process shard.argv.(0) shard.argv Unix.stdin Unix.stdout Unix.stderr
    with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "ssta_serve: shard %d spawn failed: %s\n%!" shard.index
          (Unix.error_message e);
        Thread.delay !backoff;
        backoff := Float.min 2.0 (!backoff *. 2.0)
    | pid ->
        Mutex.protect shard.slock (fun () -> shard.pid <- Some pid);
        (match connect_shard shard.spath ~attempts:200 with
        | Some fd ->
            let link =
              {
                lfd = fd;
                loc = Unix.out_channel_of_descr fd;
                wlock = Mutex.create ();
                lpending = Hashtbl.create 16;
                lnext = 0;
              }
            in
            Mutex.protect shard.slock (fun () -> shard.link <- Some link);
            ignore (Thread.create (shard_reader shard link) ());
            backoff := 0.1
        | None ->
            Printf.eprintf "ssta_serve: shard %d did not come up on %s\n%!"
              shard.index shard.spath);
        let rec wait () =
          match Unix.waitpid [] pid with
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        in
        wait ();
        Mutex.protect shard.slock (fun () ->
            shard.pid <- None;
            match shard.link with
            | Some l ->
                shard.link <- None;
                (try Unix.close l.lfd with Unix.Unix_error _ | Sys_error _ -> ())
            | None -> ());
        if not (Atomic.get draining) then begin
          Printf.eprintf "ssta_serve: shard %d exited; restarting in %.1fs\n%!"
            shard.index !backoff;
          Thread.delay !backoff;
          backoff := Float.min 2.0 (!backoff *. 2.0)
        end
  done

let run_router ~path ~n_shards ~shard_argv =
  let draining = Atomic.make false in
  let shards =
    List.init n_shards (fun i ->
        {
          index = i;
          spath = shard_socket_path path i;
          argv = shard_argv i;
          slock = Mutex.create ();
          link = None;
          pid = None;
        })
  in
  let sup_threads =
    List.map (fun s -> Thread.create (fun () -> supervise ~draining s) ()) shards
  in
  let backends =
    List.map
      (fun s ->
        {
          Serve.Router.send = (fun request ~reply -> shard_send s request ~reply);
          healthy = (fun () -> Mutex.protect s.slock (fun () -> Option.is_some s.link));
          describe = Printf.sprintf "shard-%d" s.index;
        })
      shards
  in
  let rc = Serve.Router.default_config in
  let rc = { rc with Serve.Router.replicas = min rc.Serve.Router.replicas n_shards } in
  let router = Serve.Router.create ~config:rc backends in
  let fe =
    {
      fsubmit =
        (fun ~wire payload ~reply ->
          Serve.Router.submit router ~wire payload ~reply;
          (* flip the supervisor flag the instant the shutdown broadcast has
             completed: the shards are already draining, and without this the
             supervisors would see them exit and restart them before the
             accept loop unwinds into [drain] below *)
          if Serve.Router.shutdown_requested router then Atomic.set draining true);
      fstop = (fun () -> Serve.Router.shutdown_requested router);
    }
  in
  serve_socket fe
    ~begin_drain:(fun () -> ())
    ~drain:(fun () ->
      (* the shutdown broadcast already reached every connected shard; give
         them a grace period to drain and exit, SIGTERM stragglers, then
         collect the supervisors *)
      Atomic.set draining true;
      let alive () =
        List.exists (fun s -> Mutex.protect s.slock (fun () -> Option.is_some s.pid)) shards
      in
      let waited = ref 0.0 in
      while alive () && !waited < 10.0 do
        Thread.delay 0.1;
        waited := !waited +. 0.1
      done;
      List.iter
        (fun s ->
          match Mutex.protect s.slock (fun () -> s.pid) with
          | Some pid -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
          | None -> ())
        shards;
      List.iter Thread.join sup_threads;
      List.iter
        (fun s -> try Unix.unlink s.spath with Unix.Unix_error _ -> ())
        shards)
    path

(* ------------------------------------------------------------------ *)
(* client mode: connect to a serving socket, forward stdin lines through
   the retrying Serve.Client (per-request timeout, bounded retries with
   backoff, circuit breaker), print one JSON response line per request in
   request order. Each line travels as its JSON tree, over the binary wire
   with --binary (the stdin/stdout side stays JSON either way), and only
   the server validates it; a line that is not JSON at all is answered
   here with the parse_error the server would send. *)
let run_client path timeout_s binary =
  let wire = if binary then `Binary else `Json in
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
  let reader =
    Thread.create
      (fun () ->
        try
          while true do
            (* the body to decode, and the whole message the client expects *)
            let body, message =
              match wire with
              | `Json ->
                  let line = input_line ic in
                  (line, line)
              | `Binary -> (
                  match Serve.Wire.read_frame ic with
                  | Ok payload -> (payload, Serve.Wire.frame payload)
                  | Error (`Eof | `Corrupt _) -> raise End_of_file)
            in
            let key =
              match Serve.Wire.decode wire body with
              | Ok json -> Serve.Jsonx.to_string (id_of json)
              | Error _ -> "null"
            in
            match take key with Some cb -> cb message | None -> ()
          done
        with End_of_file | Sys_error _ -> ())
      ()
  in
  let write = message_writer wire oc in
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
      ~wire transport
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
        print (Serve.Protocol.error_response ~id ?req_id code msg)
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
               (Serve.Client.call client (Serve.Wire.encode wire json))
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
  let problems =
    report.Persist.Store.corrupt + report.Persist.Store.tmp_files
    + report.Persist.Store.gc_evicted
  in
  if problems > 0 && not repair then exit 1

(* one JSON object per executed request on stderr; worker domains share
   the sink, so writes are serialized and flushed per line *)
let json_log_sink () =
  let lock = Mutex.create () in
  fun json ->
    Mutex.protect lock (fun () ->
        output_string stderr (Serve.Jsonx.to_string json);
        output_char stderr '\n';
        flush stderr)

let run store_dir socket client fsck repair gc_max_bytes timeout_s binary
    cache_entries queue_capacity workers jobs seed max_area_fraction drain_timeout
    trace_file stats_file router_shards slow_ms log_json =
  (* a client that disconnects mid-reply must surface as a write error on
     that connection, not kill the process with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match (fsck, client) with
  | Some dir, _ -> run_fsck dir repair gc_max_bytes
  | None, Some path -> run_client path timeout_s binary
  | None, None when router_shards > 0 -> (
      match socket with
      | None ->
          Printf.eprintf "ssta_serve: --router requires --socket\n";
          exit 2
      | Some path ->
          let shard_argv i =
            Array.of_list
              ([ Sys.executable_name; "--socket"; shard_socket_path path i ]
              @ (match store_dir with Some d -> [ "--store"; d ] | None -> [])
              @ [
                  "--cache-entries";
                  string_of_int cache_entries;
                  "--queue";
                  string_of_int queue_capacity;
                  "--workers";
                  string_of_int workers;
                  "--placement-seed";
                  string_of_int seed;
                  "--max-area-fraction";
                  string_of_float max_area_fraction;
                  "--slow-ms";
                  string_of_float slow_ms;
                ]
              @ (if log_json then [ "--log-json" ] else [])
              @ (match jobs with Some j -> [ "--jobs"; string_of_int j ] | None -> [])
              @
              match drain_timeout with
              | Some s -> [ "--drain-timeout"; string_of_float s ]
              | None -> [])
          in
          run_router ~path ~n_shards:router_shards ~shard_argv)
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
      let fe =
        {
          fsubmit =
            (fun ~wire payload ~reply ->
              Serve.Server.submit_wire server ~wire payload ~reply);
          fstop = (fun () -> Serve.Server.shutdown_requested server);
        }
      in
      (match socket with
      | Some path ->
          serve_socket fe
            ~begin_drain:(fun () -> Serve.Server.begin_drain server)
            ~drain:(fun () -> Serve.Server.drain server)
            path
      | None -> serve_channels fe ~drain:(fun () -> Serve.Server.drain server) stdin stdout);
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
  let doc = "Persist prepared artifacts (circuit setups, KLE models) under $(docv)." in
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

let binary_arg =
  let doc =
    "With --client: ship requests over the length-prefixed binary wire instead of JSON lines \
     (stdin/stdout stay JSON). The server detects the wire per connection automatically."
  in
  Arg.(value & flag & info [ "binary" ] ~doc)

let fsck_arg =
  let doc =
    "Verify the store at $(docv): header magic, filename/kind/spec-hash consistency, payload \
     checksums, entity-version currency, orphaned temporary files. Dry run unless --repair is \
     given; exits 1 when problems are found in a dry run."
  in
  Arg.(value & opt (some string) None & info [ "fsck" ] ~docv:"DIR" ~doc)

let repair_arg =
  let doc =
    "With --fsck: delete corrupt entries, sweep orphaned tmp files, and apply --gc-max-bytes."
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

let router_arg =
  let doc =
    "Shard the server across $(docv) supervised subprocesses behind a consistent-hash router \
     (requires --socket). Each shard is a full server with its own memory cache; all shards \
     share --store. Crashed shards are respawned; while one is down its keys fail over to the \
     next ring replica. Overload on the owning shard is shed with a typed overloaded error, \
     never spread."
  in
  Arg.(value & opt int 0 & info [ "router" ] ~docv:"SHARDS" ~doc)

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
      $ timeout_arg $ binary_arg $ cache_arg $ queue_arg $ workers_arg $ jobs_arg
      $ seed_arg $ mesh_area_arg $ drain_timeout_arg $ trace_arg $ stats_arg
      $ router_arg $ slow_ms_arg $ log_json_arg)

let () = exit (Cmd.eval cmd)
