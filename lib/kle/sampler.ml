type t = {
  model : Model.t;
  triangle_index : int array; (* location -> containing triangle *)
  b : Linalg.Mat.t; (* N_loc x r *)
}

let create ?diag model locations =
  let r = model.Model.r in
  Util.Trace.with_span
    ~attrs:
      [
        ("locations", string_of_int (Array.length locations));
        ("r", string_of_int r);
      ]
    "sampler.create"
  @@ fun () ->
  let coeffs = model.Model.solution.Galerkin.coefficients in
  let lams = model.Model.solution.Galerkin.eigenvalues in
  let sqrt_lams = Array.init r (fun j -> sqrt lams.(j)) in
  let clamped = ref 0 in
  let triangle_index =
    Array.map
      (fun p ->
        match Geometry.Locator.find model.Model.locator p with
        | Some tri -> tri
        | None ->
            incr clamped;
            Geometry.Locator.find_nearest model.Model.locator p)
      locations
  in
  if !clamped > 0 then
    Util.Diag.record ?sink:diag Warning `Out_of_domain ~stage:"kle.sampler.create"
      (Printf.sprintf
         "%d of %d locations fell outside the mesh (die-boundary placement); \
          clamped to their nearest triangles"
         !clamped (Array.length locations));
  let b =
    Linalg.Mat.init (Array.length locations) r (fun g j ->
        sqrt_lams.(j) *. Linalg.Mat.unsafe_get coeffs triangle_index.(g) j)
  in
  { model; triangle_index; b }

let model t = t.model

let dim t = Linalg.Mat.cols t.b

let location_count t = Linalg.Mat.rows t.b

let triangle_of_location t i = t.triangle_index.(i)

let expansion t = t.b

let sample t rng = Linalg.Mat.mul_vec t.b (Prng.Gaussian.vector rng (dim t))

let sample_matrix_with t ~xi =
  if Linalg.Mat.cols xi <> dim t then
    invalid_arg "Sampler.sample_matrix_with: xi width mismatch";
  Linalg.Mat.mul_nt xi t.b

(* The paper-literal Algorithm 2 expands over ALL mesh triangles and then
   gathers the location rows — O(n·r·n_triangles) for an O(n·r·N_loc)
   answer. Since B_gj = D_λ(t(g), j) by construction, routing through the
   precomputed N_loc×r expansion is the same floating-point product for each
   kept cell (bit-identical), just without computing the thrown-away rows;
   [paper_literal] keeps the original path as an ablation. *)
let sample_matrix ?(paper_literal = false) t rng ~n =
  Util.Trace.with_span
    ~attrs:[ ("n", string_of_int n) ]
    "sampler.sample_matrix"
  @@ fun () ->
  let r = dim t in
  let xi = Prng.Gaussian.matrix rng ~rows:n ~cols:r in
  if not paper_literal then sample_matrix_with t ~xi
  else begin
    (* paper-literal Algorithm 2: P_Δ = Ξ D_λᵀ over all triangles ... *)
    let d_lambda = Model.d_lambda t.model in
    let p_delta = Linalg.Mat.mul_nt xi d_lambda in
    (* ... then Row(i, P) <- Row(IndexOfContainingTriangle(g_i), P_Δ) *)
    let n_loc = location_count t in
    let n_tri = Linalg.Mat.cols p_delta in
    let p = Linalg.Mat.create n n_loc in
    let src = Linalg.Mat.raw p_delta and dst = Linalg.Mat.raw p in
    for i = 0 to n - 1 do
      let src_row = i * n_tri and dst_row = i * n_loc in
      for g = 0 to n_loc - 1 do
        Bigarray.Array1.unsafe_set dst (dst_row + g)
          (Bigarray.Array1.unsafe_get src
             (src_row + Array.unsafe_get t.triangle_index g))
      done
    done;
    p
  end
