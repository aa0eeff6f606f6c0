(* Ruppert-style Delaunay refinement on a rectangle.

   Invariants maintained by the main loop:
   - [dt] is a Delaunay triangulation of all points inserted so far;
   - [segments] partitions the rectangle boundary; every segment endpoint is
     an inserted point; boundary points are convex-hull vertices, so every
     segment is automatically a Delaunay edge;
   - a segment is split (midpoint insertion) whenever a point lies strictly
     inside its diametral circle (encroachment);
   - a skinny/large triangle is fixed by inserting its circumcenter, unless
     that circumcenter would encroach a boundary segment, in which case the
     segment is split instead (the standard Ruppert ordering, which is what
     guarantees termination for min angles below ~33 degrees).

   Floating-point hardening, needed to avoid runaway split cascades:
   - the circumcenter-vs-segment encroachment test is {e inclusive} (erring
     towards "split the segment"), while the point-vs-segment test is
     {e strict} (erring towards "leave it");
   - segments are never split below a small fraction of the target element
     size; when the only legal action on a triangle would be such a split,
     the triangle is put on an ignore list and refinement moves on (each
     step then either inserts a point or ignores a triangle, so the loop
     terminates);
   - circumcenters marginally outside the domain are clamped onto it. *)

type segment = { u : int; v : int }

type state = {
  dt : Delaunay.t;
  rect : Rect.t;
  mutable segments : segment list;
  mutable pending_segments : segment list; (* fresh, need a full point scan *)
  mutable budget : int;
  min_seg_len2 : float; (* squared minimum splittable segment length *)
  ignored : (int * int * int, unit) Hashtbl.t;
}

let point st i = Delaunay.point st.dt i

let encroaches_pt ~slack (a : Point.t) (b : Point.t) (p : Point.t) =
  let mid = Point.midpoint a b in
  let r2 = Point.dist2 a mid in
  Point.dist2 p mid < r2 *. slack

(* strict: existing points exactly on the circle do not trigger splits *)
let point_encroaches st (p : Point.t) { u; v } =
  encroaches_pt ~slack:(1.0 -. 1e-9) (point st u) (point st v) p

(* inclusive: a circumcenter on/near the circle does trigger a split *)
let center_encroaches st (p : Point.t) { u; v } =
  encroaches_pt ~slack:(1.0 +. 1e-9) (point st u) (point st v) p

let splittable st seg =
  Point.dist2 (point st seg.u) (point st seg.v) > st.min_seg_len2

let insert_point st p =
  st.budget <- st.budget - 1;
  Delaunay.insert st.dt p

(* split [seg] at its midpoint; children go on the pending queue *)
let split_segment st seg =
  let a = point st seg.u and b = point st seg.v in
  let mid = Point.midpoint a b in
  let mi = insert_point st mid in
  let s1 = { u = seg.u; v = mi } and s2 = { u = mi; v = seg.v } in
  st.segments <- s1 :: s2 :: List.filter (fun s -> s != seg) st.segments;
  st.pending_segments <- s1 :: s2 :: st.pending_segments

let some_point_encroaches st seg =
  let a = point st seg.u and b = point st seg.v in
  let n = Delaunay.point_count st.dt in
  let rec scan i =
    if i >= n then false
    else if
      i <> seg.u && i <> seg.v && encroaches_pt ~slack:(1.0 -. 1e-9) a b (point st i)
    then true
    else scan (i + 1)
  in
  scan 0

(* process the queue of segments needing a full encroachment scan *)
let rec drain_pending st =
  if st.budget > 0 then begin
    match st.pending_segments with
    | [] -> ()
    | seg :: rest ->
        st.pending_segments <- rest;
        if
          List.memq seg st.segments && splittable st seg
          && some_point_encroaches st seg
        then split_segment st seg;
        drain_pending st
  end

(* a newly inserted interior point may encroach existing segments *)
let resolve_new_point st p =
  let encroached =
    List.filter (fun seg -> splittable st seg && point_encroaches st p seg) st.segments
  in
  List.iter (fun seg -> split_segment st seg) encroached;
  drain_pending st

let tri_key (i, j, k) =
  let a = min i (min j k) and c = max i (max j k) in
  let b = i + j + k - a - c in
  (a, b, c)

let violates ~max_area ~min_angle_deg tri =
  Triangle.area tri > max_area || Triangle.min_angle_deg tri < min_angle_deg

(* one refinement step: returns false when nothing is left to fix *)
let step st ~max_area ~min_angle_deg =
  (* pick the worst offender: largest area among violators, which empirically
     keeps the point count low; on a tie the first in triangle order wins *)
  let worst = ref None in
  Delaunay.iter_triangles st.dt (fun i j k ->
      let tri = Triangle.make (point st i) (point st j) (point st k) in
      if
        violates ~max_area ~min_angle_deg tri
        && not (Hashtbl.mem st.ignored (tri_key (i, j, k)))
      then begin
        let a = Triangle.area tri in
        match !worst with
        | Some (a0, _, _) when a0 >= a -> ()
        | _ -> worst := Some (a, tri, (i, j, k))
      end);
  match !worst with
  | None -> false
  | Some (_, tri, ijk) ->
      let ignore_it () = Hashtbl.replace st.ignored (tri_key ijk) () in
      (match Triangle.circumcenter tri with
      | cc ->
          let encroached =
            List.filter (fun seg -> center_encroaches st cc seg) st.segments
          in
          let splittable_encroached = List.filter (splittable st) encroached in
          if splittable_encroached <> [] then begin
            List.iter (fun seg -> split_segment st seg) splittable_encroached;
            drain_pending st
          end
          else if encroached <> [] then
            (* only unsplittably-short segments in the way: give up on this
               triangle rather than cascade *)
            ignore_it ()
          else if Rect.contains ~tol:1e-9 st.rect cc then begin
            let cc = Rect.clamp st.rect cc in
            let before = Delaunay.point_count st.dt in
            ignore (insert_point st cc);
            if Delaunay.point_count st.dt = before then
              (* duplicate of an existing point: nothing will change *)
              ignore_it ()
            else resolve_new_point st cc
          end
          else begin
            (* circumcenter escaped the domain without encroaching any
               splittable segment: split the nearest splittable segment, or
               give up on the triangle *)
            let nearest =
              List.fold_left
                (fun acc seg ->
                  if not (splittable st seg) then acc
                  else begin
                    let d =
                      Point.dist2 cc
                        (Point.midpoint (point st seg.u) (point st seg.v))
                    in
                    match acc with
                    | Some (d0, _) when d0 <= d -> acc
                    | _ -> Some (d, seg)
                  end)
                None st.segments
            in
            match nearest with
            | Some (_, seg) ->
                split_segment st seg;
                drain_pending st
            | None -> ignore_it ()
          end
      | exception Invalid_argument _ -> ignore_it ());
      true

let mesh ?(min_angle_deg = 28.0) ?(max_points = 100_000) rect ~max_area_fraction =
  if max_area_fraction <= 0.0 then
    invalid_arg "Refine.mesh: max_area_fraction must be positive";
  let max_area = max_area_fraction *. Rect.area rect in
  (* boundary discretization at roughly the interior element scale *)
  let target = sqrt (4.0 *. max_area /. sqrt 3.0) in
  let dt = Delaunay.create rect in
  let st =
    {
      dt;
      rect;
      segments = [];
      pending_segments = [];
      budget = max_points;
      min_seg_len2 = (target /. 64.0) ** 2.0;
      ignored = Hashtbl.create 64;
    }
  in
  let add_side (a : Point.t) (b : Point.t) =
    let len = Point.dist a b in
    let pieces = max 1 (int_of_float (Float.ceil (len /. target))) in
    let prev = ref (Delaunay.insert dt a) in
    for i = 1 to pieces do
      let frac = float_of_int i /. float_of_int pieces in
      let p =
        Point.make (a.x +. (frac *. (b.x -. a.x))) (a.y +. (frac *. (b.y -. a.y)))
      in
      let idx = Delaunay.insert dt p in
      let seg = { u = !prev; v = idx } in
      st.segments <- seg :: st.segments;
      st.pending_segments <- seg :: st.pending_segments;
      prev := idx
    done
  in
  let corners = Rect.corners rect in
  for i = 0 to 3 do
    add_side corners.(i) corners.((i + 1) mod 4)
  done;
  drain_pending st;
  let continue_refining = ref true in
  while !continue_refining && st.budget > 0 do
    continue_refining := step st ~max_area ~min_angle_deg
  done;
  let mesh = Mesh.make rect (Delaunay.points dt) (Delaunay.triangles dt) in
  {
    Geometry_intf.mesh;
    satisfied = (not !continue_refining) && Hashtbl.length st.ignored = 0;
    inserted_points = Delaunay.point_count dt;
  }
