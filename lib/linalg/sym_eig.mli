(** Dense symmetric eigendecomposition.

    Householder tridiagonalization followed by the implicit-shift QL
    iteration (the classic EISPACK tred2/tql2 pair). This is the "standard
    eigenvalue problem" solver of the paper's eq. (15), and also powers the
    grid-model PCA baseline of eq. (1). *)

exception No_convergence of int
(** Raised with the offending eigenvalue index when QL fails to converge in
    50 iterations (does not happen for symmetric input). *)

val eig : Mat.t -> float array * Mat.t
(** [eig a] is [(lambda, q)] with eigenvalues in {e descending} order and the
    corresponding orthonormal eigenvectors as {e columns} of [q], so that
    [a * q = q * diag lambda]. Only the symmetric part of [a] is used; raises
    [Invalid_argument] when [a] is not square. *)

val eig_values : Mat.t -> float array
(** Eigenvalues only (descending), skipping eigenvector accumulation. *)

val tridiag_ql_vectors : float array -> float array -> Mat.t -> float array
(** [tridiag_ql_vectors d e z] computes the eigenvalues of the symmetric
    tridiagonal matrix with diagonal [d] and sub-diagonal [e] ([e.(0)] is
    unused padding to keep EISPACK indexing) and accumulates the rotations
    into [z] (initialized by the caller, typically to identity), giving the
    tridiagonal eigenvectors as columns. Both arrays are consumed. Exposed
    for the Lanczos solver. *)
