(** Sparse symmetric matrices in compressed-sparse-row form, sized for mesh
    and grid Laplacians (the power-grid substrate stores only the ~5 nonzeros
    per row of its conductance matrix). *)

type t

val of_triplets : n:int -> (int * int * float) list -> t
(** [of_triplets ~n entries] builds an [n x n] matrix from (row, col, value)
    triplets; duplicate coordinates are summed. Raises [Invalid_argument] on
    out-of-range indices. The matrix is stored as given — symmetry is the
    caller's responsibility (checked by {!is_symmetric} in tests). *)

val dim : t -> int

val mul_vec : t -> float array -> float array
(** Sparse mat-vec. Raises [Invalid_argument] on length mismatch. *)

val diagonal : t -> float array
(** The diagonal entries (0 where absent) — the Jacobi preconditioner. *)

val to_dense : t -> Mat.t
(** Densify (tests/small systems only). *)

val is_symmetric : ?tol:float -> t -> bool
