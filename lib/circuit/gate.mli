(** Gate library: cell kinds and their timing/electrical characterization.

    The characterization stands in for the paper's 90 nm Cadence Generic PDK
    library. Delay and output slew use the rank-one quadratic model of
    [Li et al., ICCAD'05] (paper ref. [22]) in the four statistical
    parameters (L, W, Vt, tox), each normalized to zero mean and unit
    sigma:

    [delay = d0 + k_slew * s_in + r_drive * c_load + β·p + γ (w·p)²]

    Units: time in ps, capacitance in fF, resistance in kΩ (so kΩ·fF = ps). *)

type kind =
  | Input  (** primary-input pseudo gate (no fanins) *)
  | Inv
  | Buf
  | Nand2
  | Nor2
  | And2
  | Or2
  | Xor2
  | Xnor2
  | Dff  (** sequential element: D fanin, Q output *)

val kind_name : kind -> string
(** Library cell name (e.g. "NAND2X1"). *)

val arity : kind -> int
(** Number of fanins (0 for [Input], 1 for [Inv]/[Buf]/[Dff], 2 otherwise). *)

val num_parameters : int
(** Number of statistical device parameters (4: L, W, Vt, tox). *)

val parameter_names : string array

type timing = {
  d0 : float; (* intrinsic delay, ps *)
  k_slew : float; (* delay sensitivity to input slew *)
  r_drive : float; (* output drive resistance, kΩ *)
  c_in : float; (* input pin capacitance, fF *)
  c_par : float; (* output parasitic capacitance, fF *)
  beta : float array; (* linear delay sensitivities to (L, W, Vt, tox), ps/σ *)
  gamma : float; (* rank-one quadratic weight, ps *)
  w : float array; (* rank-one direction (unit-ish vector over parameters) *)
  s0 : float; (* intrinsic output slew, ps *)
  k_slew_out : float; (* output slew sensitivity to input slew *)
  beta_slew : float array; (* linear slew sensitivities, ps/σ *)
}

val timing : kind -> timing
(** Characterization record for each kind. [Input] has a zero-delay driver
    model with a finite drive resistance. The record and its arrays are
    shared by every call for the same kind: read them, never mutate them. *)

val delay : kind -> slew_in:float -> c_load:float -> params:float array -> float
(** Pin-to-output delay under the rank-one quadratic model. [params] must
    have length {!num_parameters} (normalized sigma units). Result is clamped
    to be positive. *)

val output_slew : kind -> slew_in:float -> c_load:float -> params:float array -> float
(** Gate output slew (before wire degradation), clamped positive. *)

val clk_to_q : params:float array -> float
(** DFF clock-to-output delay (the launch time of sequential sources). *)
