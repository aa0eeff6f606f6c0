module Point = Geometry.Point

type point = Point.t

type t =
  | Gaussian of { c : float }
  | Exponential of { c : float }
  | Separable_exp_l1 of { c : float }
  | Radial_exponential of { c : float }
  | Matern of { b : float; s : float }
  | Linear_cone of { rho : float }
  | Spherical of { rho : float }
  | Anisotropic_gaussian of { cx : float; cy : float }
  | Faulty of { base : t; plan : Util.Fault.plan }

(* Matérn radial profile, eq. (6) of the paper:
   K(v) = 2 (bv/2)^{s-1} B_{s-1}(bv) / Γ(s-1), normalized so K(0) = 1.
   The v -> 0 limit is 1 because B_ν(x) ~ Γ(ν) 2^{ν-1} x^{-ν} as x -> 0. *)
let matern_profile ~b ~s v =
  let nu = s -. 1.0 in
  let x = b *. v in
  if x < 1e-8 then 1.0
  else begin
    let log_term =
      (nu *. log (x /. 2.0))
      +. log (Specfun.Bessel.k nu x)
      -. Specfun.Gamma.log_gamma nu
    in
    2.0 *. exp log_term
  end

let rec profile t v =
  match t with
  | Faulty { base; plan } -> Util.Fault.apply plan (profile base v)
  | Gaussian { c } -> exp (-.c *. v *. v)
  | Exponential { c } -> exp (-.c *. v)
  | Matern { b; s } -> matern_profile ~b ~s v
  | Linear_cone { rho } -> Float.max 0.0 (1.0 -. (v /. rho))
  | Spherical { rho } ->
      if v >= rho then 0.0
      else begin
        let q = v /. rho in
        1.0 -. (1.5 *. q) +. (0.5 *. q *. q *. q)
      end
  | Separable_exp_l1 _ | Radial_exponential _ | Anisotropic_gaussian _ ->
      invalid_arg "Kernel.profile: kernel is not isotropic"

let rec is_isotropic = function
  | Gaussian _ | Exponential _ | Matern _ | Linear_cone _ | Spherical _ -> true
  | Separable_exp_l1 _ | Radial_exponential _ | Anisotropic_gaussian _ -> false
  | Faulty { base; _ } -> is_isotropic base

let smooth_off_diagonal = function
  | Gaussian _ | Exponential _ | Matern _ | Anisotropic_gaussian _ -> true
  | Separable_exp_l1 _ | Radial_exponential _ | Linear_cone _ | Spherical _ | Faulty _ ->
      false

let rec eval t x y =
  match t with
  | Faulty { base; plan } -> Util.Fault.apply plan (eval base x y)
  | Separable_exp_l1 { c } -> exp (-.c *. Point.dist_l1 x y)
  | Radial_exponential { c } ->
      exp (-.c *. Float.abs (Point.norm x -. Point.norm y))
  | Anisotropic_gaussian { cx; cy } ->
      let dx = x.Point.x -. y.Point.x and dy = x.Point.y -. y.Point.y in
      exp (-.((cx *. dx *. dx) +. (cy *. dy *. dy)))
  | _ -> profile t (Point.dist x y)

let eval_distance t v =
  if v < 0.0 then invalid_arg "Kernel.eval_distance: negative distance";
  profile t v

let rec name = function
  | Faulty { base; _ } -> Printf.sprintf "faulty(%s)" (name base)
  | Gaussian { c } -> Printf.sprintf "gaussian(c=%g)" c
  | Exponential { c } -> Printf.sprintf "exponential(c=%g)" c
  | Separable_exp_l1 { c } -> Printf.sprintf "separable-exp-L1(c=%g)" c
  | Radial_exponential { c } -> Printf.sprintf "radial-exp(c=%g)" c
  | Matern { b; s } -> Printf.sprintf "matern(b=%g, s=%g)" b s
  | Linear_cone { rho } -> Printf.sprintf "linear-cone(rho=%g)" rho
  | Spherical { rho } -> Printf.sprintf "spherical(rho=%g)" rho
  | Anisotropic_gaussian { cx; cy } ->
      Printf.sprintf "anisotropic-gaussian(cx=%g, cy=%g)" cx cy

let rec validate = function
  | Faulty { base; _ } -> validate base
  | Gaussian { c } | Exponential { c } | Separable_exp_l1 { c }
  | Radial_exponential { c } ->
      if c > 0.0 then Ok () else Error "decay rate c must be positive"
  | Matern { b; s } ->
      if b <= 0.0 then Error "Matern scale b must be positive"
      else if s <= 1.0 then Error "Matern shape s must exceed 1"
      else Ok ()
  | Linear_cone { rho } | Spherical { rho } ->
      if rho > 0.0 then Ok () else Error "correlation distance rho must be positive"
  | Anisotropic_gaussian { cx; cy } ->
      if cx > 0.0 && cy > 0.0 then Ok ()
      else Error "anisotropic decay rates must both be positive"

type profile_table = {
  vmax : float;
  inv_step : float;
  values : float array;
  max_error : float;
}

let profile_table_max_error tbl = tbl.max_error

let profile_eval tbl v =
  let n = Array.length tbl.values in
  if v <= 0.0 then Array.unsafe_get tbl.values 0
  else if v >= tbl.vmax then Array.unsafe_get tbl.values (n - 1)
  else begin
    let f = v *. tbl.inv_step in
    let i = int_of_float f in
    let i = if i >= n - 1 then n - 2 else i in
    let t = f -. float_of_int i in
    let v0 = Array.unsafe_get tbl.values i in
    v0 +. (t *. (Array.unsafe_get tbl.values (i + 1) -. v0))
  end

(* Fault decorators must stay on the exact path: tabulating would freeze the
   plan's counter at build time and the injected faults would never reach the
   consumers the plan targets. Only the top constructor can be [Faulty]. *)
let has_fault = function Faulty _ -> true | _ -> false

let radial_profile ?(points = 1 lsl 17) ?(tol = 1e-9) ?diag t ~vmax =
  if points < 2 then invalid_arg "Kernel.radial_profile: need >= 2 points";
  if not (vmax > 0.0) then
    invalid_arg "Kernel.radial_profile: vmax must be positive";
  if (not (is_isotropic t)) || has_fault t then None
  else begin
    Util.Trace.with_span
      ~attrs:[ ("kernel", name t); ("points", string_of_int points) ]
      "kernel.radial_profile"
    @@ fun () ->
    let step = vmax /. float_of_int (points - 1) in
    let values = Array.init points (fun i -> profile t (float_of_int i *. step)) in
    Util.Trace.add Util.Trace.kernel_evals points;
    if not (Array.for_all Float.is_finite values) then begin
      Util.Diag.record ?sink:diag Warning `Non_finite
        ~stage:"kernel.radial_profile"
        (Printf.sprintf "non-finite table entry for %s; exact evaluation retained"
           (name t));
      None
    end
    else begin
      let tbl = { vmax; inv_step = 1.0 /. step; values; max_error = 0.0 } in
      (* Guard: measure the interpolation error at uniformly strided interval
         midpoints, plus the midpoints of the intervals with the largest
         second differences — [h² f''/8] is the lerp error bound, so those are
         where a kink (Linear_cone, Spherical at rho) or a sharp profile
         actually bites, and a uniform stride alone would miss the one bad
         interval out of 2^17. *)
      let err = ref 0.0 in
      let probe v =
        Util.Trace.incr Util.Trace.kernel_evals;
        let d = Float.abs (profile_eval tbl v -. profile t v) in
        if d > !err then err := d
      in
      let uniform_probes = 4096 in
      for i = 0 to uniform_probes - 1 do
        probe ((float_of_int i +. 0.5) /. float_of_int uniform_probes *. vmax)
      done;
      let d2 = Array.make points 0.0 in
      for i = 1 to points - 2 do
        d2.(i) <-
          Float.abs (values.(i - 1) -. (2.0 *. values.(i)) +. values.(i + 1))
      done;
      let order = Array.init points (fun i -> i) in
      Array.sort (fun a b -> Float.compare d2.(b) d2.(a)) order;
      for r = 0 to min 63 (points - 1) do
        let i = order.(r) in
        if d2.(i) > 0.0 then begin
          if i > 0 then probe ((float_of_int i -. 0.5) *. step);
          if i < points - 1 then probe ((float_of_int i +. 0.5) *. step)
        end
      done;
      if !err > tol then begin
        Util.Diag.record ?sink:diag Warning `Degraded_fallback
          ~stage:"kernel.radial_profile"
          (Printf.sprintf
             "measured interpolation error %.3g exceeds tol %.3g for %s; \
              exact evaluation retained"
             !err tol (name t));
        None
      end
      else Some { tbl with max_error = !err }
    end
  end
