(** Process-variation specification: one spatial correlation kernel per
    statistical device parameter (paper Section 5.1: L, W, Vt, tox, assumed
    mutually independent, each normalized to zero mean / unit sigma). *)

type parameter = {
  name : string;
  kernel : Kernels.Kernel.t;
}

type t = { parameters : parameter array }

val paper_default : unit -> t
(** The paper's setup: all four parameters carry the Gaussian kernel
    calibrated against the half-chip-length linear cone
    ({!Kernels.Fit.paper_gaussian}). *)

val distinct_kernels : unit -> t
(** A stress variant where each parameter has its own correlation length
    (exercises the per-parameter loops of both algorithms without kernel
    reuse). *)

val num_parameters : t -> int

val validate : t -> unit
(** The parameter count must match {!Circuit.Gate.num_parameters} and every
    kernel must pass {!Kernels.Kernel.validate}, else [Util.Diag.Failure]
    with [`Invalid_input]. Then each distinct kernel (by physical equality,
    since a kernel may carry closures) must have a positive semi-definite
    Gram matrix on a fixed 40-point set of the unit die
    ({!Kernels.Validity.is_psd_on}), else [Util.Diag.Failure] with
    [`Not_psd]. *)
