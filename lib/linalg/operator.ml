type t =
  | Dense of Mat.t
  | Matrix_free of { apply : float array -> float array; dim : int }

let of_mat m =
  if Mat.rows m <> Mat.cols m then invalid_arg "Operator.of_mat: not square";
  Dense m

let dim = function
  | Dense m -> Mat.rows m
  | Matrix_free { dim; _ } -> dim

let apply t x =
  match t with
  | Dense m -> Mat.sym_mul_vec m x
  | Matrix_free { apply; dim } ->
      if Array.length x <> dim then
        invalid_arg "Operator.apply: vector length mismatch";
      apply x
