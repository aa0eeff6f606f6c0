type parameter = {
  name : string;
  kernel : Kernels.Kernel.t;
}

type t = { parameters : parameter array }

let paper_default () =
  let kernel = Kernels.Fit.paper_gaussian () in
  {
    parameters =
      Array.map
        (fun name -> { name; kernel })
        Circuit.Gate.parameter_names;
  }

let distinct_kernels () =
  let cs = [| 2.8; 3.5; 2.2; 4.0 |] in
  {
    parameters =
      Array.mapi
        (fun i name -> { name; kernel = Kernels.Kernel.Gaussian { c = cs.(i) } })
        Circuit.Gate.parameter_names;
  }

let num_parameters t = Array.length t.parameters

let validate t =
  let stage = "process.validate" in
  if num_parameters t <> Circuit.Gate.num_parameters then
    Util.Diag.fail `Invalid_input ~stage
      (Printf.sprintf "expected %d parameters, got %d" Circuit.Gate.num_parameters
         (num_parameters t));
  Array.iter
    (fun p ->
      match Kernels.Kernel.validate p.kernel with
      | Ok () -> ()
      | Error e -> Util.Diag.fail `Invalid_input ~stage (p.name ^ ": " ^ e))
    t.parameters;
  (* empirical non-negative-definiteness spot check (paper eq. (2)) of every
     distinct kernel on a deterministic point set *)
  let pts = Kernels.Validity.random_points ~seed:7 ~n:40 Geometry.Rect.unit_die in
  let seen = ref [] in
  Array.iter
    (fun p ->
      if not (List.memq p.kernel !seen) then begin
        seen := p.kernel :: !seen;
        if not (Kernels.Validity.is_psd_on p.kernel pts) then
          Util.Diag.fail `Not_psd ~stage
            (Printf.sprintf "kernel %s (parameter %s) failed the PSD spot check on %d points"
               (Kernels.Kernel.name p.kernel) p.name (Array.length pts))
      end)
    t.parameters
