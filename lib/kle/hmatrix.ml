module Mat = Linalg.Mat
module Lowrank = Linalg.Lowrank

(* Hierarchical (H-matrix) representation of the symmetric Galerkin
   operator: a cluster tree over triangle centroids partitions the index
   square into admissible far-field blocks — compressed to low rank by
   ACA — and small dense near-field blocks. Storage and matvec cost are
   O(n log n) instead of the O(n²) of the dense matrix.

   Determinism: the partition order is a fixed depth-first traversal,
   blocks are factorized into per-block slots (so the build parallelizes
   over Util.Pool without affecting results), and [apply] walks the
   blocks sequentially in partition order — results are bit-identical for
   every [jobs] count, matching the repo-wide contract. *)

type params = {
  tol : float;
  eta : float;
  leaf_size : int;
  max_rank : int;
}

let default_params = { tol = 1e-6; eta = 2.0; leaf_size = Cluster.default_leaf_size; max_rank = 96 }

type block =
  | Near of { rlo : int; rhi : int; clo : int; chi : int; data : Mat.t }
  | Far of { rlo : int; rhi : int; clo : int; chi : int; u : Mat.t; v : Mat.t }

type stats = {
  tree_nodes : int;
  tree_depth : int;
  near_blocks : int;
  far_blocks : int;
  stalled_blocks : int;
  near_entries : int;
  rank_sum : int;
  entry_evals : int;
}

type t = {
  n : int;
  perm : int array;
  blocks : block array;
  stats : stats;
}

(* depth-first admissible partition of the upper triangle of the index
   square: (a, b) pairs of tree nodes, split until admissible or both
   leaves. The non-leaf node (or both) is split, so near blocks are
   leaf×leaf — at most leaf_size² dense entries each. A diagonal pair
   (a, a) splits into (l, l), (l, r) and (r, r) only: the operator is
   symmetric, so (r, l) is the transpose of (l, r) and is never stored. *)
let partition tree ~eta =
  let pairs = ref [] in
  let rec visit ai bi =
    let a = Cluster.node tree ai and b = Cluster.node tree bi in
    if ai = bi && not (Cluster.is_leaf a) then begin
      visit a.Cluster.left a.Cluster.left;
      visit a.Cluster.left a.Cluster.right;
      visit a.Cluster.right a.Cluster.right
    end
    else if Cluster.admissible ~eta a b then pairs := (ai, bi, true) :: !pairs
    else if Cluster.is_leaf a && Cluster.is_leaf b then
      pairs := (ai, bi, false) :: !pairs
    else if Cluster.is_leaf b || ((not (Cluster.is_leaf a)) && Cluster.size a >= Cluster.size b)
    then begin
      visit a.Cluster.left bi;
      visit a.Cluster.right bi
    end
    else begin
      visit ai b.Cluster.left;
      visit ai b.Cluster.right
    end
  in
  visit (Cluster.root_index tree) (Cluster.root_index tree);
  Array.of_list (List.rev !pairs)

let build ?(params = default_params) ?jobs ~entry points =
  let { tol; eta; leaf_size; max_rank } = params in
  Util.Trace.with_span
    ~attrs:
      [
        ("n", string_of_int (Array.length points));
        ("tol", Printf.sprintf "%g" tol);
        ("eta", Printf.sprintf "%g" eta);
      ]
    "kle.hmatrix.build"
  @@ fun () ->
  let tree = Cluster.build ~leaf_size points in
  let perm = Cluster.perm tree in
  let pairs = partition tree ~eta in
  let n_pairs = Array.length pairs in
  (* per-pair result slots: the parallel build writes each slot exactly
     once, so the assembled block list is independent of the pool size.
     A slot holds (block, entry evals, ACA rank, stalled far block?). *)
  let slots = Array.make n_pairs None in
  let build_pair p =
    let ai, bi, far = pairs.(p) in
    let a = Cluster.node tree ai and b = Cluster.node tree bi in
    let rlo = a.Cluster.lo and rhi = a.Cluster.hi in
    let clo = b.Cluster.lo and chi = b.Cluster.hi in
    let m = rhi - rlo and nc = chi - clo in
    let local i j = entry perm.(rlo + i) perm.(clo + j) in
    let near ~spent ~stalled =
      Some (Near { rlo; rhi; clo; chi; data = Mat.init m nc local }, spent + (m * nc), 0, stalled)
    in
    slots.(p) <-
      (if not far then near ~spent:0 ~stalled:false
       else
         match Aca.approximate ~entry:local ~m ~n:nc ~tol ~max_rank with
         | Ok r -> Some (Far { rlo; rhi; clo; chi; u = r.u; v = r.v }, r.evals, r.rank, false)
         (* ACA stalled at max_rank: store the block exactly instead *)
         | Error spent -> near ~spent ~stalled:true)
  in
  Util.Pool.with_jobs ?jobs (fun pool ->
      Util.Pool.parallel_for pool ~chunk:1 ~n:n_pairs (fun lo hi ->
          for p = lo to hi - 1 do
            build_pair p
          done));
  let slots = Array.map Option.get slots in
  let blocks = Array.map (fun (b, _, _, _) -> b) slots in
  let stats =
    Array.fold_left
      (fun st (b, e, r, stalled) ->
        let st = { st with entry_evals = st.entry_evals + e; rank_sum = st.rank_sum + r } in
        match b with
        | Far _ -> { st with far_blocks = st.far_blocks + 1 }
        | Near { data; _ } ->
            {
              st with
              near_blocks = st.near_blocks + 1;
              near_entries = st.near_entries + (Mat.rows data * Mat.cols data);
              stalled_blocks = (st.stalled_blocks + if stalled then 1 else 0);
            })
      {
        tree_nodes = Cluster.n_nodes tree;
        tree_depth = Cluster.depth tree;
        near_blocks = 0;
        far_blocks = 0;
        stalled_blocks = 0;
        near_entries = 0;
        rank_sum = 0;
        entry_evals = 0;
      }
      slots
  in
  (* bulk counter updates, totals independent of the pool size *)
  Util.Trace.add Util.Trace.kernel_evals stats.entry_evals;
  Util.Trace.add Util.Trace.nearfield_evals stats.near_entries;
  Util.Trace.add Util.Trace.aca_rank_sum stats.rank_sum;
  Util.Trace.add Util.Trace.htree_nodes stats.tree_nodes;
  Util.Trace.add Util.Trace.hmatrix_near_blocks stats.near_blocks;
  Util.Trace.add Util.Trace.hmatrix_far_blocks stats.far_blocks;
  { n = Array.length points; perm; blocks; stats }

let dim t = t.n
let stats t = t.stats

(* Structural integrity check. Coverage is checked by area: ranges in
   bounds, each block on the diagonal or strictly above it, factor shapes
   consistent, and block areas (off-diagonal ones twice, for the mirrored
   half) summing to n² — together with the permutation check this rules
   out every plausible corruption short of a contrived re-tiling. *)
let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let n = t.n in
  if n <= 0 then err "non-positive dimension %d" n
  else if Array.length t.perm <> n then
    err "permutation length %d for dimension %d" (Array.length t.perm) n
  else begin
    let seen = Array.make n false in
    let perm_ok =
      Array.for_all
        (fun p ->
          if p < 0 || p >= n || seen.(p) then false
          else begin
            seen.(p) <- true;
            true
          end)
        t.perm
    in
    if not perm_ok then err "perm is not a permutation of 0..%d" (n - 1)
    else begin
      let area = ref 0 in
      let bad = ref None in
      Array.iter
        (fun b ->
          let rlo, rhi, clo, chi, rows_ok, cols_ok =
            match b with
            | Near { rlo; rhi; clo; chi; data } ->
                (rlo, rhi, clo, chi, Mat.rows data = rhi - rlo, Mat.cols data = chi - clo)
            | Far { rlo; rhi; clo; chi; u; v } ->
                ( rlo,
                  rhi,
                  clo,
                  chi,
                  Mat.rows u = rhi - rlo && Mat.cols u = Mat.cols v,
                  Mat.rows v = chi - clo )
          in
          if
            Option.is_none !bad
            && not
                 (0 <= rlo && rlo < rhi && rhi <= n && 0 <= clo && clo < chi
                && chi <= n && rows_ok && cols_ok
                && ((rlo = clo && rhi = chi) || rhi <= clo))
          then bad := Some (rlo, clo);
          area := !area + ((if rlo = clo then 1 else 2) * (rhi - rlo) * (chi - clo)))
        t.blocks;
      match !bad with
      | Some (rlo, clo) -> err "malformed block at (%d, %d)" rlo clo
      | None ->
          if !area <> n * n then
            err "blocks cover %d of %d index pairs" !area (n * n)
          else Ok ()
    end
  end

let words t =
  Array.fold_left
    (fun acc b ->
      match b with
      | Near { data; _ } -> acc + (Mat.rows data * Mat.cols data)
      | Far { u; v; _ } -> acc + Lowrank.words ~u ~v)
    0 t.blocks

(* Sequential over blocks in partition order — the matvec is O(n log n),
   so there is nothing worth parallelizing at the sizes where the
   hierarchical mode is selected, and a fixed order keeps the result
   bit-identical to any future parallel variant's combine step. A block
   off the diagonal also applies its transpose, for the mirrored half.
   re-entrancy: the permuted work vectors [xp]/[yp] are allocated per
   call, so concurrent applies of one [t] share only read-only state. *)
let apply t x =
  if Array.length x <> t.n then
    invalid_arg "Kle.Hmatrix.apply: vector length mismatch";
  let xp = Array.make t.n 0.0 in
  let yp = Array.make t.n 0.0 in
  for p = 0 to t.n - 1 do
    Array.unsafe_set xp p (Array.unsafe_get x t.perm.(p))
  done;
  Array.iter
    (fun b ->
      match b with
      | Near { rlo; rhi = _; clo; chi; data } ->
          let m = Mat.rows data and nc = chi - clo in
          let mirrored = rlo <> clo in
          for i = 0 to m - 1 do
            let acc = ref 0.0 in
            let xi = Array.unsafe_get xp (rlo + i) in
            for j = 0 to nc - 1 do
              let a = Mat.unsafe_get data i j in
              acc := !acc +. (a *. Array.unsafe_get xp (clo + j));
              if mirrored then
                Array.unsafe_set yp (clo + j) (Array.unsafe_get yp (clo + j) +. (a *. xi))
            done;
            Array.unsafe_set yp (rlo + i) (Array.unsafe_get yp (rlo + i) +. !acc)
          done
      | Far { rlo; rhi = _; clo; chi = _; u; v } ->
          Lowrank.apply_into ~u ~v ~x:xp ~xoff:clo ~y:yp ~yoff:rlo;
          Lowrank.apply_into ~u:v ~v:u ~x:xp ~xoff:rlo ~y:yp ~yoff:clo)
    t.blocks;
  let y = Array.make t.n 0.0 in
  for p = 0 to t.n - 1 do
    Array.unsafe_set y t.perm.(p) (Array.unsafe_get yp p)
  done;
  y
