(** Small array helpers shared across the project. *)

val float_range : start:float -> stop:float -> count:int -> float array
(** [float_range ~start ~stop ~count] is [count] evenly spaced values from
    [start] to [stop] inclusive. Requires [count >= 2]. *)

val argmax : float array -> int
(** Index of the (first) maximum element. Raises [Invalid_argument] on an
    empty array. *)

val sum : float array -> float
(** Sum of all elements (0 on empty). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val sort_desc_with_perm : float array -> float array * int array
(** [sort_desc_with_perm a] returns a descending-sorted copy of [a] together
    with the permutation [p] such that [sorted.(i) = a.(p.(i))]. *)
