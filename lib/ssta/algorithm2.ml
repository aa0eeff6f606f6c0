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

let mesh config =
  let mesh =
    (Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:config.max_area_fraction
       ~min_angle_deg:config.min_angle_deg)
      .Geometry.Geometry_intf.mesh
  in
  match Geometry.Mesh.check mesh with
  | Ok () -> mesh
  | Error msg ->
      Util.Diag.fail `Invalid_input ~stage:"algorithm2.mesh" ("mesh check failed: " ^ msg)

(* the pair ladder's first rung; each further rung doubles it *)
let first_rung = 32

let pairs_spec config =
  match config.r with
  | Some _ -> string_of_int config.computed_pairs
  | None -> Printf.sprintf "ladder(%d..%d)" (min first_rung config.computed_pairs) config.computed_pairs

let model ?(config = paper_config) ?mesh:m ?diag ?jobs kernel =
  let mesh = match m with Some m -> m | None -> mesh config in
  let n = Geometry.Mesh.size mesh in
  let solve count =
    let solver = if count >= n then Kle.Galerkin.Dense else Kle.Galerkin.Lanczos { count } in
    Kle.Galerkin.solve ~solver ?diag ?jobs mesh kernel
  in
  Util.Trace.with_span ~attrs:[ ("n", string_of_int n) ] "algorithm2.model" @@ fun () ->
  match config.r with
  | Some _ -> Kle.Model.create ?r:config.r (solve config.computed_pairs)
  | None ->
      (* the exact-tail rule only needs the pairs it keeps, plus one to show
         that the rest fall under the tolerance: climb until it picks
         r < m *)
      let cap = config.computed_pairs in
      let rec climb count =
        let model = Kle.Model.create (solve count) in
        let m = Array.length model.Kle.Model.solution.Kle.Galerkin.eigenvalues in
        if model.Kle.Model.r < m || count >= cap || count >= n then model
        else climb (min cap (2 * count))
      in
      climb (min first_rung cap)

(* one sampler per physically distinct model, the model cache's rule in
   [prepare]: the paper process gives all four parameters one model, and a
   sampler is immutable, so sharing it changes no result *)
let samplers_of ?diag models locations =
  let made = ref [] in
  Array.map
    (fun m ->
      match List.assq_opt m !made with
      | Some s -> s
      | None ->
          let s = Kle.Sampler.create ?diag m locations in
          made := (m, s) :: !made;
          s)
    models

let of_models ?diag models locations =
  { samplers = samplers_of ?diag models locations; models; setup_seconds = 0.0 }

let prepare ?(config = paper_config) ?diag ?jobs (process : Process.t) locations =
  Util.Trace.with_span
    ~attrs:[ ("locations", string_of_int (Array.length locations)) ]
    "algorithm2.prepare"
  @@ fun () ->
  let timer = Util.Timer.start () in
  let mesh = mesh config in
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
        let m = model ~config ~mesh ?diag ?jobs kernel in
        cache := (kernel, m) :: !cache;
        m
  in
  let models =
    Array.map (fun p -> model_for p.Process.kernel) process.Process.parameters
  in
  let samplers = samplers_of ?diag models locations in
  { samplers; models; setup_seconds = Util.Timer.elapsed_s timer }

let setup_seconds t = t.setup_seconds

let r t = t.models.(0).Kle.Model.r

let mesh_size t =
  Geometry.Mesh.size t.models.(0).Kle.Model.solution.Kle.Galerkin.mesh

let models t = t.models

let sample_block t rng ~n =
  Array.map (fun s -> Kle.Sampler.sample_matrix s rng ~n) t.samplers

let qmc_sampler t ~seed =
  let seqs =
    Array.mapi
      (fun i s ->
        Prng.Lowdisc.create
          ~shift_rng:(Prng.Rng.substream ~seed ~stream:(0x51C0 + i))
          ~dim:(Kle.Sampler.dim s) ())
      t.samplers
  in
  fun _rng ~n ->
    Array.mapi
      (fun i s -> Kle.Sampler.sample_matrix_with s ~xi:(Prng.Lowdisc.normal_matrix seqs.(i) ~rows:n))
      t.samplers
