type t = {
  diag : Util.Diag.sink;
  strict_mode : bool;
  jobs : int option;
}

let create ?(strict = false) ?diag ?jobs () =
  let diag = match diag with Some d -> d | None -> Util.Diag.create () in
  { diag; strict_mode = strict; jobs }

let diagnostics t = t.diag

let strict t = t.strict_mode

type 'a staged = ('a, Util.Diag.event) result

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(* Run one stage: catch the typed exceptions of the underlying numerics and
   turn them into the stage's [Error] event; in strict mode, a warning
   recorded during the stage fails it with the escalated event. *)
let guard t ~stage f =
  let before = Util.Diag.length t.diag in
  let fail_with code detail =
    Util.Diag.record ~sink:t.diag Error code ~stage detail;
    Error { Util.Diag.severity = Error; code; stage; detail }
  in
  match Util.Trace.with_span stage f with
  | v ->
      if t.strict_mode then begin
        let fresh = drop before (Util.Diag.events t.diag) in
        match
          List.find_opt (fun e -> e.Util.Diag.severity = Util.Diag.Warning) fresh
        with
        | Some w ->
            let detail = "strict mode: " ^ w.Util.Diag.detail in
            Util.Diag.record ~sink:t.diag Error w.Util.Diag.code
              ~stage:w.Util.Diag.stage detail;
            Error { w with Util.Diag.severity = Util.Diag.Error; detail }
        | None -> Ok v
      end
      else Ok v
  | exception Util.Diag.Failure e -> Error e
  | exception Linalg.Cholesky.Not_positive_definite pivot ->
      fail_with `Not_psd (Printf.sprintf "Cholesky pivot %d is non-positive" pivot)
  | exception Linalg.Lanczos.No_convergence { converged; wanted } ->
      fail_with `No_convergence
        (Printf.sprintf "Lanczos converged %d of %d wanted eigenpairs" converged wanted)
  | exception Invalid_argument msg -> fail_with `Invalid_input msg
  | exception Not_found -> fail_with `Out_of_domain "internal lookup failed (Not_found)"

let validate_process t (process : Process.t) =
  let stage = "pipeline.validate_process" in
  guard t ~stage (fun () ->
      (match Process.validate process with
      | Ok () -> ()
      | Error msg -> Util.Diag.fail ~sink:t.diag `Invalid_input ~stage msg);
      (* empirical non-negative-definiteness spot check (paper eq. (2)) of
         every distinct kernel on a deterministic point set *)
      let seen = ref [] in
      Array.iter
        (fun (p : Process.parameter) ->
          if not (List.memq p.kernel !seen) then begin
            seen := p.kernel :: !seen;
            let pts =
              Kernels.Validity.random_points ~seed:7 ~n:40 Geometry.Rect.unit_die
            in
            if not (Kernels.Validity.is_psd_on p.kernel pts) then
              Util.Diag.fail ~sink:t.diag `Not_psd ~stage
                (Printf.sprintf
                   "kernel %s (parameter %s) failed the PSD spot check on %d points"
                   (Kernels.Kernel.name p.kernel) p.name (Array.length pts))
          end)
        process.Process.parameters;
      process)

let validate_mesh ?(min_angle_deg = 10.0) t mesh =
  let stage = "pipeline.validate_mesh" in
  guard t ~stage (fun () ->
      (match Geometry.Mesh.check mesh with
      | Ok () -> ()
      | Error msg ->
          Util.Diag.fail ~sink:t.diag `Invalid_input ~stage
            ("mesh structural check failed: " ^ msg));
      let angle = Geometry.Mesh.min_angle_deg mesh in
      if angle < min_angle_deg then
        Util.Diag.fail ~sink:t.diag `Invalid_input ~stage
          (Printf.sprintf "mesh minimum interior angle %.2f deg is below the %.2f deg floor"
             angle min_angle_deg);
      mesh)

let setup_circuit ?placement_seed t netlist =
  guard t ~stage:"pipeline.setup_circuit" (fun () ->
      Experiment.setup_circuit ?placement_seed netlist)

type method_ = Cholesky | Kle of Algorithm2.config

type prepared = Cholesky_prepared of Algorithm1.t | Kle_prepared of Algorithm2.t

let sampler_of = function
  | Cholesky_prepared a1 -> Algorithm1.sample_block a1
  | Kle_prepared a2 -> Algorithm2.sample_block a2

let setup_seconds_of = function
  | Cholesky_prepared a1 -> Algorithm1.setup_seconds a1
  | Kle_prepared a2 -> Algorithm2.setup_seconds a2

(* Draw one tiny batch from a freshly prepared sampler and validate block
   count, shape and finiteness before committing to a full MC run. *)
let probe t ~stage ~n_logic sampler =
  let rng = Prng.Rng.create ~seed:0x9e3779b9 in
  let blocks = sampler rng ~n:2 in
  if Array.length blocks <> 4 then
    Util.Diag.fail ~sink:t.diag `Invalid_input ~stage
      (Printf.sprintf "sampler probe returned %d parameter blocks, expected 4"
         (Array.length blocks));
  Array.iteri
    (fun p blk ->
      let r = Linalg.Mat.rows blk and c = Linalg.Mat.cols blk in
      if r <> 2 || c <> n_logic then
        Util.Diag.fail ~sink:t.diag `Invalid_input ~stage
          (Printf.sprintf "sampler probe block %d has shape %dx%d, expected 2x%d" p r c
             n_logic);
      match Linalg.Mat.find_non_finite blk with
      | None -> ()
      | Some (i, j) ->
          Util.Diag.fail ~sink:t.diag `Non_finite ~stage
            (Printf.sprintf "sampler probe block %d has a non-finite entry at (%d, %d)"
               p i j))
    blocks

let check_eigenvalues t ~stage a2 =
  Array.iter
    (fun (m : Kle.Model.t) ->
      Array.iteri
        (fun j lam ->
          if not (Float.is_finite lam) then
            Util.Diag.fail ~sink:t.diag `Non_finite ~stage
              (Printf.sprintf "KLE eigenvalue %d is non-finite (%g)" j lam);
          if lam < 0.0 then
            Util.Diag.fail ~sink:t.diag `Not_psd ~stage
              (Printf.sprintf "KLE eigenvalue %d is negative (%g)" j lam))
        m.Kle.Model.solution.Kle.Galerkin.eigenvalues)
    a2

let prepare ?mesh t method_ process (setup : Experiment.circuit_setup) =
  let stage = "pipeline.prepare" in
  let n_logic = Array.length setup.Experiment.logic_ids in
  match method_ with
  | Cholesky ->
      guard t ~stage (fun () ->
          let a1 =
            Algorithm1.prepare ~diag:t.diag ?jobs:t.jobs process
              setup.Experiment.locations
          in
          let prepared = Cholesky_prepared a1 in
          probe t ~stage ~n_logic (sampler_of prepared);
          prepared)
  | Kle config ->
      let mesh_result =
        match mesh with
        | Some m -> Ok m
        | None ->
            guard t ~stage (fun () -> Algorithm2.mesh config)
      in
      Result.bind mesh_result (fun m ->
          Result.bind (validate_mesh t m) (fun m ->
              guard t ~stage (fun () ->
                  let a2 =
                    Algorithm2.prepare ~config ~mesh:m ~diag:t.diag ?jobs:t.jobs
                      process setup.Experiment.locations
                  in
                  check_eigenvalues t ~stage (Algorithm2.models a2);
                  let prepared = Kle_prepared a2 in
                  probe t ~stage ~n_logic (sampler_of prepared);
                  prepared)))

let run_mc ?batch ?policy t setup prepared ~seed ~n =
  guard t ~stage:"pipeline.run_mc" (fun () ->
      Experiment.run_mc ?batch ?jobs:t.jobs ?policy ~diag:t.diag setup
        ~sampler:(sampler_of prepared) ~seed ~n)

let run ?placement_seed ?mesh ?batch ?policy t method_ process netlist ~seed ~n =
  let ( let* ) = Result.bind in
  let* process = validate_process t process in
  let* setup = setup_circuit ?placement_seed t netlist in
  let* prepared = prepare ?mesh t method_ process setup in
  let* mc = run_mc ?batch ?policy t setup prepared ~seed ~n in
  Ok (prepared, mc)
