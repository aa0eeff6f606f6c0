(** Correlation-kernel extraction from measured (or simulated) silicon —
    a minimal version of the workflow of [Xiong et al., TCAD'07] (the
    paper's ref. [1], which provides the kernels this library consumes):

    1. estimate an empirical {e correlogram} — pairwise sample correlations
       binned by separation distance — from repeated field measurements at
       known die locations;
    2. fit candidate kernel families to the binned correlogram by weighted
       least squares;
    3. keep the best fit that is actually a {e valid} (non-negative
       definite) kernel, which the raw correlogram itself need not be. *)

type correlogram = {
  distances : float array; (* bin centers *)
  correlations : float array; (* average sample correlation per bin *)
  counts : int array; (* location pairs per bin (weighted fits use these) *)
}

val empirical_correlogram :
  locations:Geometry.Point.t array ->
  samples:Linalg.Mat.t ->
  ?bins:int ->
  ?vmax:float ->
  unit ->
  correlogram
(** [empirical_correlogram ~locations ~samples ()] bins the pairwise Pearson
    correlations of the sample columns (one column per location, one row per
    measured die) by location distance. [bins] defaults to 20; [vmax] to the
    maximum pairwise distance. Raises [Invalid_argument] when dimensions
    disagree or there are fewer than 3 sample rows. *)

type extraction = {
  kernel : Kernel.t;
  family_name : string;
  sse : float;
  valid : bool; (* PSD on the measurement locations *)
}

val extract :
  locations:Geometry.Point.t array ->
  samples:Linalg.Mat.t ->
  ?families:(string * (float -> Kernel.t) * float * float) list ->
  unit ->
  extraction list
(** Run the full workflow over a set of candidate families (default:
    gaussian, exponential, Matérn s=2, Matérn s=3, spherical), returning all
    candidates sorted best-first by SSE, with validity verdicts. The first
    [valid] entry is the extracted kernel. *)
