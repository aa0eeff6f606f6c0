(* Fixed pool of worker domains executing one chunked parallel-for at a
   time. Chunk ranges are derived only from (n, chunk), so the work
   decomposition — and any per-chunk result slots the caller keeps — is
   identical for every pool size; only the assignment of chunks to domains
   varies. *)

type job = {
  body : int -> int -> unit;
  n : int;
  chunk : int;
  next : int Atomic.t; (* next chunk index to hand out *)
  error : exn option Atomic.t; (* first exception raised by any body *)
  parent : string; (* submitting span path, for worker-side trace events *)
}

type t = {
  mutable workers : unit Domain.t array;
  num_domains : int;
  mutex : Mutex.t; (* protects generation/job/unfinished/stop *)
  has_work : Condition.t;
  work_done : Condition.t;
  submit : Mutex.t; (* serializes client submissions *)
  mutable generation : int;
  mutable job : job option;
  mutable unfinished : int; (* workers still executing the current job *)
  mutable stop : bool;
  mutable joined : bool;
}

(* true while this domain is executing a parallel_for body (workers:
   always); makes nested parallel_for calls run sequentially *)
let in_parallel_body = Domain.DLS.new_key (fun () -> ref false)

let run_job job =
  let n_chunks = (job.n + job.chunk - 1) / job.chunk in
  let rec loop () =
    let c = Atomic.fetch_and_add job.next 1 in
    if c < n_chunks then begin
      (* after a failure, drain remaining chunks without running them *)
      if Atomic.get job.error = None then begin
        let lo = c * job.chunk in
        let hi = min job.n (lo + job.chunk) in
        try job.body lo hi
        with e -> ignore (Atomic.compare_and_set job.error None (Some e))
      end;
      loop ()
    end
  in
  loop ()

let worker_loop t () =
  Domain.DLS.get in_parallel_body := true;
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    let t_wait = Trace.now_ns () in
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = !last_gen do
      Condition.wait t.has_work t.mutex
    done;
    Trace.add Trace.pool_wait_ns (Trace.now_ns () - t_wait);
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      last_gen := t.generation;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.mutex;
      let t_run = Trace.now_ns () in
      Trace.with_pool_job ~parent:job.parent (fun () -> run_job job);
      Trace.add Trace.pool_run_ns (Trace.now_ns () - t_run);
      Mutex.lock t.mutex;
      t.unfinished <- t.unfinished - 1;
      if t.unfinished = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex
    end
  done

let create ?num_domains () =
  let num_domains =
    match num_domains with
    | Some n -> max 0 n
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      workers = [||];
      num_domains;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      work_done = Condition.create ();
      submit = Mutex.create ();
      generation = 0;
      job = None;
      unfinished = 0;
      stop = false;
      joined = false;
    }
  in
  t.workers <- Array.init num_domains (fun _ -> Domain.spawn (worker_loop t));
  t

let size t = t.num_domains + 1

let seq = create ~num_domains:0 ()

let force_shutdown t =
  if t.num_domains > 0 then begin
    Mutex.lock t.submit;
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    if not t.joined then begin
      Array.iter Domain.join t.workers;
      t.joined <- true
    end;
    Mutex.unlock t.submit
  end

let default_pool = ref None
let default_lock = Mutex.create ()

let default () =
  Mutex.lock default_lock;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        (* wake and join workers at exit so blocked domains never delay
           process shutdown *)
        at_exit (fun () -> force_shutdown p);
        p
  in
  Mutex.unlock default_lock;
  p

let default_if_created () =
  Mutex.lock default_lock;
  let p = !default_pool in
  Mutex.unlock default_lock;
  p

let shutdown t =
  let is_default = match default_if_created () with Some d -> d == t | None -> false in
  if not (t == seq || is_default) then force_shutdown t

(* Explicitly-sized pools are cached and reused across calls: spawning
   domains is ~ms-scale, and callers such as the Galerkin assembly, the
   H-matrix build and the Monte Carlo loops request the same size on every
   call. One pool per distinct size, joined at exit. *)
let sized_pools : (int * t) list ref = ref []
let sized_lock = Mutex.create ()

let is_stopped p =
  Mutex.lock p.mutex;
  let s = p.stop in
  Mutex.unlock p.mutex;
  s

let sized_pool j =
  Mutex.lock sized_lock;
  let p =
    match
      List.find_opt (fun (s, p) -> s = j && not (is_stopped p)) !sized_pools
    with
    | Some (_, p) -> p
    | None ->
        let p = create ~num_domains:(j - 1) () in
        sized_pools :=
          (j, p) :: List.filter (fun (_, q) -> not (is_stopped q)) !sized_pools;
        at_exit (fun () -> force_shutdown p);
        p
  in
  Mutex.unlock sized_lock;
  p

let with_jobs ?jobs f =
  match jobs with
  | None -> f (default ())
  | Some j when j <= 1 -> f seq
  | Some j -> (
      match default_if_created () with
      | Some d when size d = j -> f d
      | _ -> f (sized_pool j))

let sequential_run body n chunk =
  let n_chunks = (n + chunk - 1) / chunk in
  for c = 0 to n_chunks - 1 do
    body (c * chunk) (min n ((c + 1) * chunk))
  done

let parallel_for t ?chunk ~n body =
  if n > 0 then begin
    let chunk =
      match chunk with
      | Some c ->
          if c <= 0 then invalid_arg "Pool.parallel_for: chunk must be positive";
          c
      | None ->
          (* ~8 chunks per domain for load balance at modest dispatch cost *)
          let lanes = 8 * (t.num_domains + 1) in
          max 1 ((n + lanes - 1) / lanes)
    in
    let inside = Domain.DLS.get in_parallel_body in
    if t.num_domains = 0 || !inside || n <= chunk then sequential_run body n chunk
    else begin
      Mutex.lock t.submit;
      if t.stop then begin
        (* pool already shut down: degrade to the sequential path *)
        Mutex.unlock t.submit;
        sequential_run body n chunk
      end
      else begin
        let job =
          {
            body;
            n;
            chunk;
            next = Atomic.make 0;
            error = Atomic.make None;
            parent = (if Trace.enabled () then Trace.current_path () else "");
          }
        in
        Mutex.lock t.mutex;
        t.job <- Some job;
        t.generation <- t.generation + 1;
        t.unfinished <- t.num_domains;
        Condition.broadcast t.has_work;
        Mutex.unlock t.mutex;
        (* the caller participates; flag nested calls as sequential *)
        inside := true;
        run_job job;
        inside := false;
        Mutex.lock t.mutex;
        while t.unfinished > 0 do
          Condition.wait t.work_done t.mutex
        done;
        t.job <- None;
        Mutex.unlock t.mutex;
        Mutex.unlock t.submit;
        match Atomic.get job.error with Some e -> raise e | None -> ()
      end
    end
  end
