(** Dense vectors as plain [float array]s with the usual BLAS-1 operations.

    All binary operations require equal lengths and raise [Invalid_argument]
    otherwise. *)

type t = float array

val create : int -> t
(** [create n] is a zero vector of length [n]. *)

val copy : t -> t

val dot : t -> t -> float
(** Inner product. *)

val norm2 : t -> float
(** Euclidean norm. *)


val scale : float -> t -> t
(** [scale a x] is a fresh vector [a * x]. *)

val add : t -> t -> t
val sub : t -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a*x + y] in place. *)

val normalize : t -> t
(** [normalize x] is [x / |x|]. Raises [Invalid_argument] on (near-)zero
    vectors. *)

val dist_inf : t -> t -> float
(** Maximum absolute component-wise difference. *)
