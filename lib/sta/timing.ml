module Netlist = Circuit.Netlist
module Gate = Circuit.Gate
module Wireload = Circuit.Wireload

type params = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type role =
  | Primary (* Input: launches at its own delay from the default slew *)
  | Launch (* Dff: launches at clk-to-q, independent of its D arrival *)
  | Logic (* the latest-arriving fanin pin sets arrival and input slew *)

(* Arrays indexed by position in the topological order unless noted; the
   coefficient arrays repeat [Gate.timing] and the wire model so the Monte
   Carlo loop reads flat floats instead of records. *)
type plan = {
  order : int array; (* gate id at each position *)
  role : role array;
  column : int array; (* logic column of the gate, -1 for Input *)
  fanin_start : int array; (* CSR: position p owns edges start.(p) .. start.(p + 1) - 1 *)
  fanin : int array; (* per edge: driving gate id *)
  edge_elmore : float array; (* per edge: driver -> sink pin Elmore delay, ps *)
  edge_slew2 : float array; (* per edge: squared Bakoglu wire slew, ps^2 *)
  d0 : float array;
  k_slew : float array;
  rc : float array; (* r_drive * c_load *)
  s0 : float array;
  k_slew_out : float array;
  rc_slew : float array; (* (0.35 * r_drive) * c_load *)
  gamma : float array;
  beta : float array; (* 4 per position *)
  w : float array; (* 4 per position *)
  beta_slew : float array; (* 4 per position *)
  n_logic : int;
}

type prepared = {
  wireload : Wireload.t;
  order : int array;
  endpoints : int array;
  c_loads : float array;
}

let default_input_slew_ps = 50.0

(* wire Elmore from driver [f] into the input pin of a gate of kind [kind] *)
let wire_elmore (wireload : Wireload.t) f kind =
  let load = wireload.Wireload.loads.(f) in
  load.Wireload.r_wire
  *. ((0.5 *. load.Wireload.c_wire) +. (Gate.timing kind).Gate.c_in)

let prepare (wireload : Wireload.t) =
  let netlist = wireload.Wireload.placement.Circuit.Placer.netlist in
  let n = Netlist.size netlist in
  {
    wireload;
    order = Netlist.topological_order netlist;
    endpoints = Netlist.endpoints netlist;
    c_loads = Array.init n (Wireload.c_load wireload);
  }

(* Order and endpoints follow the connectivity and which gates are
   sources (inputs and DFFs), so a logic kind swap keeps both. *)
let with_wireload p (wireload : Wireload.t) =
  let role (g : Netlist.gate) =
    match g.Netlist.kind with Gate.Input -> Primary | Gate.Dff -> Launch | _ -> Logic
  in
  let gates = wireload.Wireload.placement.Circuit.Placer.netlist.Netlist.gates in
  let old = p.wireload.Wireload.placement.Circuit.Placer.netlist.Netlist.gates in
  if
    Array.length gates <> Array.length old
    || not (Array.for_all2 (fun g o -> role g = role o) gates old)
  then invalid_arg "Timing.with_wireload: the source gates differ";
  { p with wireload; c_loads = Array.init (Array.length gates) (Wireload.c_load wireload) }

let logic_ids p =
  p.wireload.Wireload.placement.Circuit.Placer.netlist.Netlist.gates |> Array.to_seq
  |> Seq.filter_map (fun (g : Netlist.gate) ->
         if g.kind = Gate.Input then None else Some g.id)
  |> Array.of_seq

let plan p =
  let gates = p.wireload.Wireload.placement.Circuit.Placer.netlist.Netlist.gates in
  let order = p.order in
  let n = Array.length order in
  let ids = logic_ids p in
  let column = Array.make (Array.length gates) (-1) in
  Array.iteri (fun c g -> column.(g) <- c) ids;
  let fanin_start = Array.make (n + 1) 0 in
  Array.iteri
    (fun pos g ->
      let gate = gates.(g) in
      let arity =
        match gate.Netlist.kind with
        | Gate.Input | Gate.Dff -> 0
        | _ -> Array.length gate.Netlist.fanins
      in
      fanin_start.(pos + 1) <- fanin_start.(pos) + arity)
    order;
  let fanin = Array.make fanin_start.(n) 0 in
  let edge_elmore = Array.make fanin_start.(n) 0.0 in
  let edge_slew2 = Array.make fanin_start.(n) 0.0 in
  Array.iteri
    (fun pos g ->
      let gate = gates.(g) in
      for e = fanin_start.(pos) to fanin_start.(pos + 1) - 1 do
        let f = gate.Netlist.fanins.(e - fanin_start.(pos)) in
        let elmore = wire_elmore p.wireload f gate.Netlist.kind in
        let wire_slew = Slew.bakoglu_wire_slew ~elmore_ps:elmore in
        fanin.(e) <- f;
        edge_elmore.(e) <- elmore;
        edge_slew2.(e) <- wire_slew *. wire_slew
      done)
    order;
  let per_gate f = Array.map (fun g -> f (Gate.timing gates.(g).Netlist.kind) g) order in
  let per_param f =
    Array.concat
      (List.map (fun g -> f (Gate.timing gates.(g).Netlist.kind)) (Array.to_list order))
  in
  {
    order;
    role =
      Array.map
        (fun g ->
          match gates.(g).Netlist.kind with
          | Gate.Input -> Primary
          | Gate.Dff -> Launch
          | _ -> Logic)
        order;
    column = Array.map (fun g -> column.(g)) order;
    fanin_start;
    fanin;
    edge_elmore;
    edge_slew2;
    d0 = per_gate (fun t _ -> t.Gate.d0);
    k_slew = per_gate (fun t _ -> t.Gate.k_slew);
    rc = per_gate (fun t g -> t.Gate.r_drive *. p.c_loads.(g));
    s0 = per_gate (fun t _ -> t.Gate.s0);
    k_slew_out = per_gate (fun t _ -> t.Gate.k_slew_out);
    rc_slew = per_gate (fun t g -> 0.35 *. t.Gate.r_drive *. p.c_loads.(g));
    gamma = per_gate (fun t _ -> t.Gate.gamma);
    beta = per_param (fun t -> t.Gate.beta);
    w = per_param (fun t -> t.Gate.w);
    beta_slew = per_param (fun t -> t.Gate.beta_slew);
    n_logic = Array.length ids;
  }

(* logic column [c] of the sample at [row]; Input gates (c = -1) take 0 *)
let[@inline] param (ba : params) ~row c =
  if c < 0 then 0.0 else Bigarray.Array1.unsafe_get ba (row + c)

(* Each expression below repeats the association of [propagate] and
   [Gate.delay]/[Gate.output_slew]/[Gate.clk_to_q] (left-folded sums from
   0.0, [max] with the clamp first), so every output bit matches. *)
let eval (pl : plan) ~(l : params) ~(w : params) ~(vt : params) ~(tox : params) ~row
    ~(arrival : float array) ~(slew : float array) =
  let n = Array.length pl.order in
  let dim = row + pl.n_logic in
  if
    row < 0
    || Bigarray.Array1.dim l < dim
    || Bigarray.Array1.dim w < dim
    || Bigarray.Array1.dim vt < dim
    || Bigarray.Array1.dim tox < dim
  then invalid_arg "Sta.Timing.eval: parameter row out of range";
  if Array.length arrival < n || Array.length slew < n then
    invalid_arg "Sta.Timing.eval: scratch shorter than the gate count";
  for pos = 0 to n - 1 do
    let g = Array.unsafe_get pl.order pos in
    let c = Array.unsafe_get pl.column pos in
    let p0 = param l ~row c and p1 = param w ~row c in
    let p2 = param vt ~row c and p3 = param tox ~row c in
    let q = 4 * pos in
    let beta = pl.beta and wv = pl.w and bs = pl.beta_slew in
    let lin =
      0.0
      +. (Array.unsafe_get beta q *. p0)
      +. (Array.unsafe_get beta (q + 1) *. p1)
      +. (Array.unsafe_get beta (q + 2) *. p2)
      +. (Array.unsafe_get beta (q + 3) *. p3)
    in
    let proj =
      0.0
      +. (Array.unsafe_get wv q *. p0)
      +. (Array.unsafe_get wv (q + 1) *. p1)
      +. (Array.unsafe_get wv (q + 2) *. p2)
      +. (Array.unsafe_get wv (q + 3) *. p3)
    in
    let stat = lin +. (Array.unsafe_get pl.gamma pos *. proj *. proj) in
    let slew_lin =
      0.0
      +. (Array.unsafe_get bs q *. p0)
      +. (Array.unsafe_get bs (q + 1) *. p1)
      +. (Array.unsafe_get bs (q + 2) *. p2)
      +. (Array.unsafe_get bs (q + 3) *. p3)
    in
    let d0 = Array.unsafe_get pl.d0 pos in
    let role = Array.unsafe_get pl.role pos in
    let base = ref 0.0 and slew_in = ref default_input_slew_ps in
    if role = Logic then begin
      base := neg_infinity;
      for e = Array.unsafe_get pl.fanin_start pos
          to Array.unsafe_get pl.fanin_start (pos + 1) - 1 do
        let f = Array.unsafe_get pl.fanin e in
        let pin_arrival = Array.unsafe_get arrival f +. Array.unsafe_get pl.edge_elmore e in
        if pin_arrival > !base then begin
          base := pin_arrival;
          let s = Array.unsafe_get slew f in
          slew_in := sqrt ((s *. s) +. Array.unsafe_get pl.edge_slew2 e)
        end
      done
    end;
    let slew_in = !slew_in in
    Array.unsafe_set arrival g
      (match role with
      | Launch -> Float.max 0.1 (d0 +. stat)
      | Primary | Logic ->
          let nominal =
            d0 +. (Array.unsafe_get pl.k_slew pos *. slew_in) +. Array.unsafe_get pl.rc pos
          in
          let delay = Float.max 0.1 (nominal +. stat) in
          if role = Primary then delay else !base +. delay);
    Array.unsafe_set slew g
      (Float.max 1.0
         (Array.unsafe_get pl.s0 pos
          +. (Array.unsafe_get pl.k_slew_out pos *. slew_in)
          +. Array.unsafe_get pl.rc_slew pos
          +. slew_lin))
  done

type result = {
  worst_delay : float;
  endpoint_arrivals : float array;
}

(* Core propagation. Writes per-gate output arrival and slew into the given
   scratch arrays and returns them. *)
let propagate p ~l ~w ~vt ~tox =
  let netlist = p.wireload.Wireload.placement.Circuit.Placer.netlist in
  let n = Netlist.size netlist in
  if
    Array.length l <> n || Array.length w <> n || Array.length vt <> n
    || Array.length tox <> n
  then invalid_arg "Sta.run: parameter array length mismatch";
  let arrival = Array.make n 0.0 in
  let slew = Array.make n default_input_slew_ps in
  let params = Array.make Gate.num_parameters 0.0 in
  let set_params g =
    params.(0) <- l.(g);
    params.(1) <- w.(g);
    params.(2) <- vt.(g);
    params.(3) <- tox.(g)
  in
  Array.iter
    (fun g ->
      let gate = netlist.Netlist.gates.(g) in
      let c_load = p.c_loads.(g) in
      set_params g;
      match gate.Netlist.kind with
      | Gate.Input ->
          arrival.(g) <-
            Gate.delay Gate.Input ~slew_in:default_input_slew_ps ~c_load ~params;
          slew.(g) <-
            Gate.output_slew Gate.Input ~slew_in:default_input_slew_ps ~c_load
              ~params
      | Gate.Dff ->
          (* sequential source: launch at clk-to-q, independent of D arrival *)
          arrival.(g) <- Gate.clk_to_q ~params;
          slew.(g) <-
            Gate.output_slew Gate.Dff ~slew_in:default_input_slew_ps ~c_load
              ~params
      | kind ->
          (* latest-arriving input pin determines both delay and slew *)
          let best_arrival = ref neg_infinity in
          let best_slew = ref default_input_slew_ps in
          Array.iter
            (fun f ->
              let load = p.wireload.Wireload.loads.(f) in
              let c_sink = (Gate.timing kind).Gate.c_in in
              let wire_elmore =
                load.Wireload.r_wire *. ((0.5 *. load.Wireload.c_wire) +. c_sink)
              in
              let pin_arrival = arrival.(f) +. wire_elmore in
              if pin_arrival > !best_arrival then begin
                best_arrival := pin_arrival;
                best_slew :=
                  Slew.sink_slew ~slew_driver:slew.(f) ~wire_elmore_ps:wire_elmore
              end)
            gate.Netlist.fanins;
          let slew_in = !best_slew in
          arrival.(g) <-
            !best_arrival +. Gate.delay kind ~slew_in ~c_load ~params;
          slew.(g) <- Gate.output_slew kind ~slew_in ~c_load ~params)
    p.order;
  (arrival, slew)

let run p ~l ~w ~vt ~tox =
  let arrival, _slew = propagate p ~l ~w ~vt ~tox in
  let endpoint_arrivals = Array.map (fun e -> arrival.(e)) p.endpoints in
  let worst_delay = Array.fold_left Float.max neg_infinity endpoint_arrivals in
  { worst_delay; endpoint_arrivals }

let run_nominal p =
  let netlist = p.wireload.Wireload.placement.Circuit.Placer.netlist in
  let n = Netlist.size netlist in
  let zeros = Array.make n 0.0 in
  run p ~l:zeros ~w:zeros ~vt:zeros ~tox:zeros

let arrival_times p ~l ~w ~vt ~tox = fst (propagate p ~l ~w ~vt ~tox)

type slack_report = {
  clock_period : float;
  slacks : float array;
  worst_slack : float;
  critical_path : int array;
}

let slack_report ?clock_period p =
  let netlist = p.wireload.Wireload.placement.Circuit.Placer.netlist in
  let n = Netlist.size netlist in
  let zeros = Array.make n 0.0 in
  let arrival, slew = propagate p ~l:zeros ~w:zeros ~vt:zeros ~tox:zeros in
  ignore slew;
  let worst = Array.fold_left (fun acc e -> Float.max acc arrival.(e)) neg_infinity p.endpoints in
  let clock_period = match clock_period with Some c -> c | None -> worst in
  (* backward pass: required time at each gate OUTPUT *)
  let required = Array.make n infinity in
  Array.iter (fun e -> required.(e) <- Float.min required.(e) clock_period) p.endpoints;
  (* traverse in reverse topological order *)
  for idx = n - 1 downto 0 do
    let g = p.order.(idx) in
    let gate = netlist.Netlist.gates.(g) in
    match gate.Netlist.kind with
    | Gate.Input | Gate.Dff -> ()
    | kind ->
        (* this gate's output requirement constrains each fanin's output:
           required(f) <= required(g) - gate_delay(g) - wire(f -> g) *)
        let gate_delay = arrival.(g) -. (Array.fold_left
          (fun acc f -> Float.max acc (arrival.(f) +. wire_elmore p.wireload f kind))
          neg_infinity gate.Netlist.fanins)
        in
        Array.iter
          (fun f ->
            let req_f = required.(g) -. gate_delay -. wire_elmore p.wireload f kind in
            if req_f < required.(f) then required.(f) <- req_f)
          gate.Netlist.fanins
  done;
  let slacks = Array.init n (fun g -> required.(g) -. arrival.(g)) in
  (* critical path: walk back from the worst endpoint via latest pins *)
  let worst_endpoint =
    Array.fold_left
      (fun best e -> if arrival.(e) > arrival.(best) then e else best)
      p.endpoints.(0) p.endpoints
  in
  let rec walk g acc =
    let gate = netlist.Netlist.gates.(g) in
    match gate.Netlist.kind with
    | Gate.Input | Gate.Dff -> g :: acc
    | kind ->
        let best = ref gate.Netlist.fanins.(0) in
        let best_t = ref neg_infinity in
        Array.iter
          (fun f ->
            let t = arrival.(f) +. wire_elmore p.wireload f kind in
            if t > !best_t then begin
              best_t := t;
              best := f
            end)
          gate.Netlist.fanins;
        walk !best (g :: acc)
  in
  let critical_path = Array.of_list (walk worst_endpoint []) in
  let worst_slack =
    Array.fold_left
      (fun acc e -> Float.min acc slacks.(e))
      infinity p.endpoints
  in
  { clock_period; slacks; worst_slack; critical_path }

let nominal_arrival_and_slew p =
  let netlist = p.wireload.Wireload.placement.Circuit.Placer.netlist in
  let n = Netlist.size netlist in
  let zeros = Array.make n 0.0 in
  propagate p ~l:zeros ~w:zeros ~vt:zeros ~tox:zeros
