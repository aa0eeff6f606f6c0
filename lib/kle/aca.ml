module Mat = Linalg.Mat
module Lowrank = Linalg.Lowrank

(* Adaptive cross approximation with partial pivoting: build a rank-k
   factorization u·vᵀ of an m×n block from O(k(m+n)) entry evaluations,
   never touching the full block. Works because admissible far-field
   blocks of a smooth kernel have exponentially decaying singular values.

   Each step evaluates one residual row, picks the column of its largest
   entry as pivot, evaluates that residual column, and appends the
   rank-one cross. The stopping rule is the standard one: stop when the
   newest term is small relative to the running approximation,
   ‖u_k‖·‖v_k‖ ≤ tol·‖Σ u_c v_cᵀ‖_F, with the Frobenius norm maintained
   incrementally (Lowrank.cross_norm2_increment). Deterministic: pivots
   are argmax scans with fixed tie-breaks, no randomness. *)

type result = {
  u : Mat.t;  (* m × rank *)
  v : Mat.t;  (* n × rank *)
  rank : int;
  evals : int;  (* entry evaluations spent *)
}

(* below this magnitude a pivot is numerical zero: the row/column carries
   no usable information (e.g. a Gaussian kernel block many correlation
   lengths away underflows) *)
let zero_pivot = 1e-150

(* consecutive numerically-zero pivot rows before the residual is
   declared zero *)
let zero_row_streak = 3

let approximate ~entry ~m ~n ~tol ~max_rank =
  if m <= 0 || n <= 0 then invalid_arg "Aca.approximate: empty block";
  if tol <= 0.0 then invalid_arg "Aca.approximate: tol must be positive";
  let us = ref [] and vs = ref [] in
  (* oldest first *)
  let rank = ref 0 in
  let evals = ref 0 in
  let norm2 = ref 0.0 in
  let row_used = Array.make m false in
  let residual_row i =
    evals := !evals + n;
    let r = Array.init n (fun j -> entry i j) in
    List.iter2
      (fun u v ->
        let ui = Array.unsafe_get u i in
        if ui <> 0.0 then
          for j = 0 to n - 1 do
            Array.unsafe_set r j
              (Array.unsafe_get r j -. (ui *. Array.unsafe_get v j))
          done)
      !us !vs;
    r
  in
  let residual_col j =
    evals := !evals + m;
    let c = Array.init m (fun i -> entry i j) in
    List.iter2
      (fun u v ->
        let vj = Array.unsafe_get v j in
        if vj <> 0.0 then
          for i = 0 to m - 1 do
            Array.unsafe_set c i
              (Array.unsafe_get c i -. (vj *. Array.unsafe_get u i))
          done)
      !us !vs;
    c
  in
  let argmax_abs a =
    let best = ref 0 and best_v = ref (Float.abs a.(0)) in
    for i = 1 to Array.length a - 1 do
      let v = Float.abs a.(i) in
      if v > !best_v then begin
        best := i;
        best_v := v
      end
    done;
    (!best, !best_v)
  in
  let first_unused_row () =
    let rec find i = if i >= m then None else if row_used.(i) then find (i + 1) else Some i in
    find 0
  in
  let finish () =
    Ok
      {
        u = Lowrank.of_columns ~rows:m (List.rev !us);
        v = Lowrank.of_columns ~rows:n (List.rev !vs);
        rank = !rank;
        evals = !evals;
      }
  in
  let rec step pivot_row zero_streak =
    match pivot_row with
    | None -> finish () (* all m rows crossed: the block is represented exactly *)
    | Some i ->
        row_used.(i) <- true;
        let r = residual_row i in
        let j, rj_abs = argmax_abs r in
        if rj_abs <= zero_pivot then
          (* numerically zero residual row: after a few in a row, accept
             the current approximation (an all-but-vanished block) *)
          if zero_streak + 1 >= zero_row_streak then finish ()
          else step (first_unused_row ()) (zero_streak + 1)
        else begin
          let v = Array.map (fun x -> x /. r.(j)) r in
          let u = residual_col j in
          norm2 := !norm2 +. Lowrank.cross_norm2_increment ~us:!us ~vs:!vs ~u ~v;
          us := !us @ [ u ];
          vs := !vs @ [ v ];
          incr rank;
          let term = sqrt (Lowrank.norm2 u *. Lowrank.norm2 v) in
          if term <= tol *. sqrt (Float.max !norm2 0.0) then finish ()
          else if !rank >= max_rank then Error !evals (* stalled *)
          else begin
            (* next pivot row: largest remaining entry of the new column,
               over rows not yet crossed *)
            let next = ref None and next_v = ref (-1.0) in
            for ii = 0 to m - 1 do
              if not row_used.(ii) then begin
                let a = Float.abs u.(ii) in
                if a > !next_v then begin
                  next := Some ii;
                  next_v := a
                end
              end
            done;
            let next = match !next with Some _ as s -> s | None -> first_unused_row () in
            step next 0
          end
        end
  in
  if max_rank < 1 then Error 0 else step (Some 0) 0
