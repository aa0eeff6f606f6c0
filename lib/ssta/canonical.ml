type t = {
  mean : float;
  sens : float array;
  indep : float;
}

let dim t = Array.length t.sens

let constant ~dim v = { mean = v; sens = Array.make dim 0.0; indep = 0.0 }

let make ~mean ~sens ~indep =
  if indep < 0.0 then invalid_arg "Canonical.make: negative independent sigma";
  { mean; sens; indep }

let check_dims a b =
  if dim a <> dim b then invalid_arg "Canonical: basis dimension mismatch"

(* The loops below write fresh output arrays and never update an input:
   block SSTA shares one form's [sens] among several forms, and an edit's
   re-analysis shares its parent's forms across requests and domains. *)
let add a b =
  check_dims a b;
  let sens = Array.create_float (dim a) in
  for i = 0 to dim a - 1 do
    Array.unsafe_set sens i (Array.unsafe_get a.sens i +. Array.unsafe_get b.sens i)
  done;
  {
    mean = a.mean +. b.mean;
    sens;
    indep = sqrt ((a.indep *. a.indep) +. (b.indep *. b.indep));
  }

let add_constant a c = { a with mean = a.mean +. c }

let scale s a =
  let sens = Array.create_float (dim a) in
  for i = 0 to dim a - 1 do
    Array.unsafe_set sens i (s *. Array.unsafe_get a.sens i)
  done;
  { mean = s *. a.mean; sens; indep = Float.abs s *. a.indep }

let variance t =
  let acc = ref (t.indep *. t.indep) in
  for i = 0 to dim t - 1 do
    let s = Array.unsafe_get t.sens i in
    acc := !acc +. (s *. s)
  done;
  !acc

let sigma t = sqrt (variance t)

let covariance a b =
  check_dims a b;
  let acc = ref 0.0 in
  for i = 0 to dim a - 1 do
    acc := !acc +. (a.sens.(i) *. b.sens.(i))
  done;
  !acc

let correlation a b =
  let sa = sigma a and sb = sigma b in
  if sa < 1e-300 || sb < 1e-300 then 0.0 else covariance a b /. (sa *. sb)

let normal_pdf x = exp (-0.5 *. x *. x) /. sqrt (2.0 *. Float.pi)

let max_clark a b =
  check_dims a b;
  let va = variance a and vb = variance b in
  let cov = covariance a b in
  let theta2 = va +. vb -. (2.0 *. cov) in
  if theta2 <= 1e-24 then begin
    (* (near-)perfectly tracking forms: max is just the larger-mean one *)
    if a.mean >= b.mean then a else b
  end
  else begin
    let theta = sqrt theta2 in
    let alpha = (a.mean -. b.mean) /. theta in
    let phi_a = Specfun.Erf.normal_cdf alpha in
    let phi_b = 1.0 -. phi_a in
    let pdf = normal_pdf alpha in
    let mean =
      (a.mean *. phi_a) +. (b.mean *. phi_b) +. (theta *. pdf)
    in
    let second_moment =
      (((a.mean *. a.mean) +. va) *. phi_a)
      +. (((b.mean *. b.mean) +. vb) *. phi_b)
      +. ((a.mean +. b.mean) *. theta *. pdf)
    in
    let var_max = Float.max 0.0 (second_moment -. (mean *. mean)) in
    (* tightness-weighted sensitivities preserve covariances with the basis:
       Cov(max, xi_i) = phi_a Cov(a, xi_i) + phi_b Cov(b, xi_i) *)
    let sens = Array.create_float (dim a) in
    let shared = ref 0.0 in
    for i = 0 to dim a - 1 do
      let s = (phi_a *. Array.unsafe_get a.sens i) +. (phi_b *. Array.unsafe_get b.sens i) in
      Array.unsafe_set sens i s;
      shared := !shared +. (s *. s)
    done;
    let indep = sqrt (Float.max 0.0 (var_max -. !shared)) in
    { mean; sens; indep }
  end

let max_many = function
  | [] -> invalid_arg "Canonical.max_many: empty list"
  | x :: rest -> List.fold_left max_clark x rest

let eval t ~xi ~local =
  if Array.length xi <> dim t then invalid_arg "Canonical.eval: dimension mismatch";
  let acc = ref (t.mean +. (t.indep *. local)) in
  for i = 0 to dim t - 1 do
    acc := !acc +. (t.sens.(i) *. xi.(i))
  done;
  !acc

let quantile t p = Specfun.Erf.normal_quantile ~mu:t.mean ~sigma:(Float.max 1e-300 (sigma t)) p
