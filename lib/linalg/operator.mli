(** A symmetric linear operator, either as an assembled matrix or as a
    matrix-free [apply] closure.

    The Krylov eigensolver ({!Lanczos}) only ever touches an operator
    through matrix-vector products, so a caller that can compute [A·x] on
    the fly — e.g. the Galerkin correlation operator, whose entries are
    cheap kernel evaluations — never needs to materialize the O(n²) matrix.
    [Dense] keeps the assembled path available behind the same interface. *)

type t =
  | Dense of Mat.t  (** an assembled symmetric matrix *)
  | Matrix_free of { apply : float array -> float array; dim : int }
      (** [apply x = A·x] for a symmetric operator of dimension [dim];
          [apply] must return a fresh array and must not retain [x] *)

val of_mat : Mat.t -> t
(** [of_mat m] wraps a square matrix. Raises [Invalid_argument] when [m] is
    not square. Symmetry is the caller's contract, as with
    {!Mat.sym_mul_vec}. *)

val dim : t -> int

val apply : t -> float array -> float array
(** One matrix-vector product. Raises [Invalid_argument] on a length
    mismatch (for [Dense], via {!Mat.mul_vec}'s own check). *)
