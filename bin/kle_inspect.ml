(* Inspect the Karhunen-Loeve expansion of a correlation kernel: eigenvalue
   decay, the automatic truncation order, and reconstruction accuracy.

   Examples:
     kle_inspect --kernel gaussian --param 2.8
     kle_inspect --kernel matern --param 2.0 --shape 2.5 --mesh-frac 0.004 *)

open Cmdliner

let run kernel_name param shape mesh_frac min_angle pairs =
  let kernel =
    match kernel_name with
    | "gaussian" -> Kernels.Kernel.Gaussian { c = param }
    | "exponential" -> Kernels.Kernel.Exponential { c = param }
    | "separable" -> Kernels.Kernel.Separable_exp_l1 { c = param }
    | "matern" -> Kernels.Kernel.Matern { b = param; s = shape }
    | "spherical" -> Kernels.Kernel.Spherical { rho = param }
    | "anisotropic" -> Kernels.Kernel.Anisotropic_gaussian { cx = param; cy = shape }
    | "paper" -> Kernels.Fit.paper_gaussian ()
    | other ->
        Printf.eprintf
          "unknown kernel %S \
           (gaussian|exponential|separable|matern|spherical|anisotropic|paper)\n"
          other;
        exit 1
  in
  (match Kernels.Kernel.validate kernel with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "invalid kernel parameters: %s\n" e;
      exit 1);
  Printf.printf "kernel: %s\n" (Kernels.Kernel.name kernel);
  let mesh_result =
    Geometry.Refine.mesh Geometry.Rect.unit_die ~max_area_fraction:mesh_frac
      ~min_angle_deg:min_angle
  in
  let mesh = mesh_result.Geometry.Geometry_intf.mesh in
  let n = Geometry.Mesh.size mesh in
  Printf.printf "mesh: n = %d, h = %.4f, min angle = %.1f deg\n" n
    (Geometry.Mesh.h_max mesh)
    (Geometry.Mesh.min_angle_deg mesh);
  let count = min pairs n in
  let sol, dt =
    Util.Timer.time (fun () ->
        Kle.Galerkin.solve ~solver:(Kle.Galerkin.Lanczos { count }) mesh kernel)
  in
  Printf.printf "eigensolution: %d pairs in %.2fs\n\n" count dt;
  let vals = sol.Kle.Galerkin.eigenvalues in
  let total = Kle.Galerkin.trace mesh kernel in
  Printf.printf "%6s %12s %12s\n" "j" "lambda" "cum. frac";
  let cum = ref 0.0 in
  Array.iteri
    (fun j v ->
      cum := !cum +. v;
      if j < 10 || (j + 1) mod 10 = 0 then
        Printf.printf "%6d %12.6f %12.5f\n" (j + 1) v (!cum /. total))
    vals;
  let r = Kle.Model.choose_r ~trace:total vals in
  Printf.printf "\ntruncation rule (1%% tolerance): r = %d\n" r;
  let model = Kle.Model.create ~r sol in
  Printf.printf "reconstruction error from die center (mesh nodes): %.4f\n"
    (Kle.Model.reconstruction_error model);
  Printf.printf "variance captured: %.2f%%\n"
    (100.0 *. Kle.Model.captured_variance_fraction model)

let kernel_arg =
  Arg.(
    value & opt string "paper"
    & info [ "k"; "kernel" ]
        ~doc:
          "Kernel family: gaussian, exponential, separable, matern, spherical, \
           anisotropic (cx = param, cy = shape), paper.")

let param_arg =
  Arg.(
    value & opt float 2.8
    & info [ "p"; "param" ] ~doc:"Primary kernel parameter (c, b or rho).")

let shape_arg =
  Arg.(value & opt float 2.5 & info [ "shape" ] ~doc:"Matern shape parameter s (> 1).")

let mesh_frac_arg =
  Arg.(
    value & opt float 0.001
    & info [ "mesh-frac" ] ~doc:"Max triangle area as a fraction of the die.")

let min_angle_arg =
  Arg.(value & opt float 28.0 & info [ "min-angle" ] ~doc:"Mesh minimum angle (deg).")

let pairs_arg =
  Arg.(value & opt int 200 & info [ "pairs" ] ~doc:"Number of eigenpairs to compute.")

let cmd =
  let doc = "inspect the KLE of a spatial correlation kernel" in
  Cmd.v
    (Cmd.info "kle_inspect" ~doc)
    Term.(
      const run $ kernel_arg $ param_arg $ shape_arg $ mesh_frac_arg $ min_angle_arg
      $ pairs_arg)

let () = exit (Cmd.eval cmd)
