(** Dense row-major float64 matrices backed by a flat [Bigarray], sized for
    the covariance matrices of the Monte Carlo reference sampler (up to
    ~20k x 20k when memory permits). *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val unsafe_get : t -> int -> int -> float
val unsafe_set : t -> int -> int -> float -> unit

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)

val identity : int -> t

val copy : t -> t

val of_arrays : float array array -> t
(** Rows from a rectangular array-of-arrays. Raises [Invalid_argument] on
    ragged input. *)

val to_arrays : t -> float array array

val row : t -> int -> float array
(** [row m i] is a fresh copy of row [i]. *)

val col : t -> int -> float array
(** [col m j] is a fresh copy of column [j]. *)

val set_row : t -> int -> float array -> unit

val transpose : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. Raises [Invalid_argument] on dimension mismatch. *)

val mul_nt : t -> t -> t
(** [mul_nt a b] is [a * bᵀ] without materializing the transpose: both
    operands stream along contiguous rows (k-blocked), which is the
    cache-friendly orientation for the sampler's [Ξ·D_λᵀ] products.
    Bit-identical to [mul a (transpose b)]. Raises [Invalid_argument] when
    [cols a <> cols b]. *)

val mul_vec : t -> float array -> float array
(** [mul_vec m x] is [m * x]. *)

val sym_mul_vec : t -> float array -> float array
(** [sym_mul_vec m x] is [m * x] assuming [m] symmetric; same as [mul_vec]
    but documents intent at Lanczos call sites. *)

val trace : t -> float
(** Sum of diagonal entries of a square matrix. *)

val find_non_finite : t -> (int * int) option
(** Position [(i, j)] of the first (row-major) NaN/inf entry, if any — the
    shared primitive behind the pipeline's non-finite guards. *)

val is_finite : t -> bool
(** [find_non_finite m = None]. *)

val max_abs_diff : t -> t -> float
(** Maximum entry-wise absolute difference of equal-shaped matrices. *)

val is_symmetric : ?tol:float -> t -> bool
(** True when [|m - mᵀ|] is entry-wise below [tol] (default 1e-10), scaled by
    the magnitude of the entries. *)

val frobenius_norm : t -> float

val words : t -> int
(** Number of float64 cells — for memory-guard arithmetic. *)

val raw : t -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The underlying row-major buffer (entry [(i, j)] at [i * cols + j]).
    Performance escape hatch: without cross-module inlining, per-element
    accessor calls dominate O(n³) kernels, so the factorization and sampling
    hot loops index the buffer directly. Mutations alias the matrix. *)

val pp : Format.formatter -> t -> unit
(** Debug printer (small matrices only). *)
