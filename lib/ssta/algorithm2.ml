type config = {
  max_area_fraction : float;
  min_angle_deg : float;
  computed_pairs : int;
  r : int option;
}

let paper_config =
  {
    max_area_fraction = 0.001;
    min_angle_deg = 28.0;
    computed_pairs = 200;
    r = None;
  }

type t = {
  samplers : Kle.Sampler.t array;
  models : Kle.Model.t array;
  setup_seconds : float;
}

let prepare ?(config = paper_config) ?mesh ?diag ?jobs (process : Process.t) locations =
  Util.Trace.with_span
    ~attrs:[ ("locations", string_of_int (Array.length locations)) ]
    "algorithm2.prepare"
  @@ fun () ->
  let timer = Util.Timer.start () in
  let mesh =
    match mesh with
    | Some m -> m
    | None ->
        let result =
          Geometry.Refine.mesh Geometry.Rect.unit_die
            ~max_area_fraction:config.max_area_fraction
            ~min_angle_deg:config.min_angle_deg
        in
        result.Geometry.Geometry_intf.mesh
  in
  let n = Geometry.Mesh.size mesh in
  let solver =
    if config.computed_pairs >= n then Kle.Galerkin.Dense
    else Kle.Galerkin.Lanczos { count = config.computed_pairs }
  in
  let cache : (Kernels.Kernel.t * Kle.Model.t) list ref = ref [] in
  (* cache key by PHYSICAL equality: [Kernel.t] can carry closures (a
     [Faulty] plan with a [Transform] corruption), on which
     Stdlib.compare raises. Physical sharing is also the right notion here — two
     structurally equal kernels built separately still mean separate
     fault-plan state. *)
  let model_for kernel =
    match List.find_opt (fun (k, _) -> k == kernel) !cache with
    | Some (_, m) -> m
    | None ->
        let solution =
          Kle.Galerkin.solve ~solver ?diag ?jobs mesh kernel
        in
        let m = Kle.Model.create ?r:config.r solution in
        cache := (kernel, m) :: !cache;
        m
  in
  let models =
    Array.map (fun p -> model_for p.Process.kernel) process.Process.parameters
  in
  let samplers = Array.map (fun m -> Kle.Sampler.create ?diag m locations) models in
  { samplers; models; setup_seconds = Util.Timer.elapsed_s timer }

let setup_seconds t = t.setup_seconds

let r t = t.models.(0).Kle.Model.r

let mesh_size t =
  Geometry.Mesh.size t.models.(0).Kle.Model.solution.Kle.Galerkin.mesh

let models t = t.models

let sample_block t rng ~n =
  Array.map (fun s -> Kle.Sampler.sample_matrix s rng ~n) t.samplers
