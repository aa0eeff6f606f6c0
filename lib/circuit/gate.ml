type kind =
  | Input
  | Inv
  | Buf
  | Nand2
  | Nor2
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Dff

let kind_name = function
  | Input -> "INPUT"
  | Inv -> "INVX1"
  | Buf -> "BUFX2"
  | Nand2 -> "NAND2X1"
  | Nor2 -> "NOR2X1"
  | And2 -> "AND2X1"
  | Or2 -> "OR2X1"
  | Xor2 -> "XOR2X1"
  | Xnor2 -> "XNOR2X1"
  | Dff -> "DFFX1"

let arity = function
  | Input -> 0
  | Inv | Buf | Dff -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> 2

let num_parameters = 4

let parameter_names = [| "L"; "W"; "Vt"; "tox" |]

type timing = {
  d0 : float;
  k_slew : float;
  r_drive : float;
  c_in : float;
  c_par : float;
  beta : float array;
  gamma : float;
  w : float array;
  s0 : float;
  k_slew_out : float;
  beta_slew : float array;
}

(* 90 nm-plausible characterization. The linear sensitivities follow the
   physics sign conventions: longer channel (L+) and higher threshold (Vt+)
   slow the gate, wider devices (W+) speed it up, thicker oxide (tox+) slows
   it slightly. Magnitudes are a few percent of intrinsic delay per sigma,
   matching the within-die budgets typically quoted at 90 nm. *)
let characterize ~d0 ~r_drive ~c_in ~s0 =
  {
    d0;
    k_slew = 0.22;
    r_drive;
    c_in;
    c_par = 0.8 *. c_in;
    beta = [| 0.11 *. d0; -0.055 *. d0; 0.085 *. d0; 0.035 *. d0 |];
    gamma = 0.02 *. d0;
    w = [| 0.70; -0.25; 0.60; 0.30 |];
    s0;
    k_slew_out = 0.30;
    beta_slew = [| 0.06 *. s0; -0.03 *. s0; 0.045 *. s0; 0.02 *. s0 |];
  }

let input_timing =
  (* ideal driver with a realistic output resistance so that wire loads at
     primary inputs still matter *)
  {
    (characterize ~d0:0.0 ~r_drive:1.0 ~c_in:0.0 ~s0:40.0) with
    k_slew = 0.0;
    beta = [| 0.0; 0.0; 0.0; 0.0 |];
    gamma = 0.0;
    beta_slew = [| 0.0; 0.0; 0.0; 0.0 |];
  }

(* one record per kind, built once: callers time every gate of every
   sample, so [timing] must not allocate *)
let inv_timing = characterize ~d0:14.0 ~r_drive:2.4 ~c_in:1.8 ~s0:22.0
let buf_timing = characterize ~d0:26.0 ~r_drive:1.4 ~c_in:2.0 ~s0:20.0
let nand2_timing = characterize ~d0:20.0 ~r_drive:2.8 ~c_in:2.2 ~s0:26.0
let nor2_timing = characterize ~d0:24.0 ~r_drive:3.4 ~c_in:2.2 ~s0:30.0
let and2_timing = characterize ~d0:32.0 ~r_drive:1.8 ~c_in:2.2 ~s0:24.0
let or2_timing = characterize ~d0:36.0 ~r_drive:1.8 ~c_in:2.2 ~s0:26.0
let xor2_timing = characterize ~d0:44.0 ~r_drive:2.6 ~c_in:3.6 ~s0:32.0
let xnor2_timing = characterize ~d0:46.0 ~r_drive:2.6 ~c_in:3.6 ~s0:32.0
let dff_timing = characterize ~d0:60.0 ~r_drive:2.0 ~c_in:2.6 ~s0:28.0

let timing = function
  | Input -> input_timing
  | Inv -> inv_timing
  | Buf -> buf_timing
  | Nand2 -> nand2_timing
  | Nor2 -> nor2_timing
  | And2 -> and2_timing
  | Or2 -> or2_timing
  | Xor2 -> xor2_timing
  | Xnor2 -> xnor2_timing
  | Dff -> dff_timing

let check_params params =
  if Array.length params <> num_parameters then
    invalid_arg "Gate: params must have length 4 (L, W, Vt, tox)"

let rank_one_quadratic t ~params =
  check_params params;
  let lin = ref 0.0 and proj = ref 0.0 in
  for i = 0 to num_parameters - 1 do
    lin := !lin +. (t.beta.(i) *. params.(i));
    proj := !proj +. (t.w.(i) *. params.(i))
  done;
  !lin +. (t.gamma *. !proj *. !proj)

let delay kind ~slew_in ~c_load ~params =
  let t = timing kind in
  let nominal = t.d0 +. (t.k_slew *. slew_in) +. (t.r_drive *. c_load) in
  let stat = rank_one_quadratic t ~params in
  Float.max 0.1 (nominal +. stat)

let output_slew kind ~slew_in ~c_load ~params =
  check_params params;
  let t = timing kind in
  let nominal = t.s0 +. (t.k_slew_out *. slew_in) +. (0.35 *. t.r_drive *. c_load) in
  let lin = ref 0.0 in
  for i = 0 to num_parameters - 1 do
    lin := !lin +. (t.beta_slew.(i) *. params.(i))
  done;
  Float.max 1.0 (nominal +. !lin)

let clk_to_q ~params =
  let t = timing Dff in
  Float.max 0.1 (t.d0 +. rank_one_quadratic t ~params)
