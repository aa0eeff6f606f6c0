(* Householder tridiagonalization (tred2) + implicit-shift QL (tql2),
   translated from the EISPACK/Numerical-Recipes formulation to 0-based
   indexing. The matrix [z] holds the accumulated transformations; after QL
   its columns are the eigenvectors. *)

exception No_convergence of int

let pythag a b =
  let absa = Float.abs a and absb = Float.abs b in
  if absa > absb then begin
    let r = absb /. absa in
    absa *. sqrt (1.0 +. (r *. r))
  end
  else if absb = 0.0 then 0.0
  else begin
    let r = absa /. absb in
    absb *. sqrt (1.0 +. (r *. r))
  end

(* Reduce the symmetric matrix held in [z] to tridiagonal form, storing the
   diagonal in [d], the sub-diagonal in [e] (with e.(0) = 0), and leaving the
   orthogonal transformation accumulated in [z] when [vectors] is true. *)
let tred2 ~vectors z d e =
  let n = Array.length d in
  for i = n - 1 downto 1 do
    let l = i - 1 in
    let h = ref 0.0 in
    let scale = ref 0.0 in
    if l > 0 then begin
      for k = 0 to l do
        scale := !scale +. Float.abs (Mat.unsafe_get z i k)
      done;
      if !scale = 0.0 then e.(i) <- Mat.unsafe_get z i l
      else begin
        for k = 0 to l do
          let v = Mat.unsafe_get z i k /. !scale in
          Mat.unsafe_set z i k v;
          h := !h +. (v *. v)
        done;
        let f = Mat.unsafe_get z i l in
        let g = if f >= 0.0 then -.sqrt !h else sqrt !h in
        e.(i) <- !scale *. g;
        h := !h -. (f *. g);
        Mat.unsafe_set z i l (f -. g);
        let f_acc = ref 0.0 in
        for j = 0 to l do
          if vectors then Mat.unsafe_set z j i (Mat.unsafe_get z i j /. !h);
          let g = ref 0.0 in
          for k = 0 to j do
            g := !g +. (Mat.unsafe_get z j k *. Mat.unsafe_get z i k)
          done;
          for k = j + 1 to l do
            g := !g +. (Mat.unsafe_get z k j *. Mat.unsafe_get z i k)
          done;
          e.(j) <- !g /. !h;
          f_acc := !f_acc +. (e.(j) *. Mat.unsafe_get z i j)
        done;
        let hh = !f_acc /. (!h +. !h) in
        for j = 0 to l do
          let f = Mat.unsafe_get z i j in
          let g = e.(j) -. (hh *. f) in
          e.(j) <- g;
          for k = 0 to j do
            Mat.unsafe_set z j k
              (Mat.unsafe_get z j k -. ((f *. e.(k)) +. (g *. Mat.unsafe_get z i k)))
          done
        done
      end
    end
    else e.(i) <- Mat.unsafe_get z i l;
    d.(i) <- !h
  done;
  if vectors then d.(0) <- 0.0;
  e.(0) <- 0.0;
  for i = 0 to n - 1 do
    if vectors then begin
      let l = i - 1 in
      if d.(i) <> 0.0 then
        for j = 0 to l do
          let g = ref 0.0 in
          for k = 0 to l do
            g := !g +. (Mat.unsafe_get z i k *. Mat.unsafe_get z k j)
          done;
          for k = 0 to l do
            Mat.unsafe_set z k j (Mat.unsafe_get z k j -. (!g *. Mat.unsafe_get z k i))
          done
        done;
      d.(i) <- Mat.unsafe_get z i i;
      Mat.unsafe_set z i i 1.0;
      for j = 0 to l do
        Mat.unsafe_set z j i 0.0;
        Mat.unsafe_set z i j 0.0
      done
    end
    else d.(i) <- Mat.unsafe_get z i i
  done

(* QL with implicit shifts on the tridiagonal (d, e); rotations applied to
   the columns of [z] when present. *)
let tql2 ?z d e =
  let n = Array.length d in
  let eps = epsilon_float in
  for i = 1 to n - 1 do
    e.(i - 1) <- e.(i)
  done;
  e.(n - 1) <- 0.0;
  (* overall scale: numerically-low-rank matrices (e.g. smooth-kernel Gram
     matrices) leave whole tridiagonal blocks at rounding-noise level
     (|d|, |e| ~ eps²·‖A‖); a purely local deflation test never fires there,
     so — as LAPACK does — also deflate couplings negligible relative to the
     matrix norm. Backward stable: perturbs eigenvalues by O(eps·‖A‖). *)
  let anorm = ref 0.0 in
  for i = 0 to n - 1 do
    anorm := Float.max !anorm (Float.abs d.(i) +. Float.abs e.(i))
  done;
  let anorm = !anorm in
  for l = 0 to n - 1 do
    let iter = ref 0 in
    let continue_outer = ref true in
    while !continue_outer do
      (* find a negligible sub-diagonal element *)
      let m = ref l in
      (try
         while !m < n - 1 do
           let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
           if Float.abs e.(!m) <= eps *. (dd +. anorm) then raise Exit;
           incr m
         done
       with Exit -> ());
      if !m = l then continue_outer := false
      else begin
        incr iter;
        if !iter > 50 then raise (No_convergence l);
        let g = ref ((d.(l + 1) -. d.(l)) /. (2.0 *. e.(l))) in
        let r = ref (pythag !g 1.0) in
        let sign_r = if !g >= 0.0 then Float.abs !r else -.Float.abs !r in
        g := d.(!m) -. d.(l) +. (e.(l) /. (!g +. sign_r));
        let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
        let broke = ref false in
        let i = ref (!m - 1) in
        while (not !broke) && !i >= l do
          let f = !s *. e.(!i) in
          let b = !c *. e.(!i) in
          r := pythag f !g;
          e.(!i + 1) <- !r;
          if !r = 0.0 then begin
            d.(!i + 1) <- d.(!i + 1) -. !p;
            e.(!m) <- 0.0;
            broke := true
          end
          else begin
            s := f /. !r;
            c := !g /. !r;
            let g' = d.(!i + 1) -. !p in
            let r' = ((d.(!i) -. g') *. !s) +. (2.0 *. !c *. b) in
            p := !s *. r';
            d.(!i + 1) <- g' +. !p;
            g := (!c *. r') -. b;
            (match z with
            | None -> ()
            | Some z ->
                let nz = Mat.rows z in
                for k = 0 to nz - 1 do
                  let f = Mat.unsafe_get z k (!i + 1) in
                  Mat.unsafe_set z k (!i + 1)
                    ((!s *. Mat.unsafe_get z k !i) +. (!c *. f));
                  Mat.unsafe_set z k !i ((!c *. Mat.unsafe_get z k !i) -. (!s *. f))
                done);
            decr i
          end
        done;
        if not !broke then begin
          d.(l) <- d.(l) -. !p;
          e.(l) <- !g;
          e.(!m) <- 0.0
        end
      end
    done
  done

let eig a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Sym_eig.eig: not square";
  Util.Trace.with_span ~attrs:[ ("n", string_of_int n) ] "sym_eig.eig"
  @@ fun () ->
  (* work on the symmetric part to be robust against tiny asymmetries *)
  let z = Mat.init n n (fun i j -> 0.5 *. (Mat.get a i j +. Mat.get a j i)) in
  let d = Array.make n 0.0 in
  let e = Array.make n 0.0 in
  tred2 ~vectors:true z d e;
  tql2 ~z d e;
  (* sort eigenpairs in descending eigenvalue order *)
  let sorted, perm = Util.Arrayx.sort_desc_with_perm d in
  let q = Mat.init n n (fun i j -> Mat.unsafe_get z i perm.(j)) in
  (sorted, q)

let eig_values a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Sym_eig.eig_values: not square";
  let z = Mat.init n n (fun i j -> 0.5 *. (Mat.get a i j +. Mat.get a j i)) in
  let d = Array.make n 0.0 in
  let e = Array.make n 0.0 in
  tred2 ~vectors:false z d e;
  tql2 d e;
  let sorted, _ = Util.Arrayx.sort_desc_with_perm d in
  sorted

let tridiag_ql_vectors d e z =
  tql2 ~z d e;
  d
