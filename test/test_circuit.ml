module G = Circuit.Gate
module N = Circuit.Netlist

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let zeros = Array.make 4 0.0

(* a tiny hand-built netlist:
   pi0, pi1 -> nand2 g2 -> inv g3 (output) *)
let tiny () =
  let gates =
    [|
      { N.id = 0; name = "a"; kind = G.Input; fanins = [||] };
      { N.id = 1; name = "b"; kind = G.Input; fanins = [||] };
      { N.id = 2; name = "n"; kind = G.Nand2; fanins = [| 0; 1 |] };
      { N.id = 3; name = "y"; kind = G.Inv; fanins = [| 2 |] };
    |]
  in
  N.make ~name:"tiny" ~gates ~outputs:[| 3 |]

(* ---------- Gate ---------- *)

let test_gate_arities () =
  Alcotest.(check int) "input" 0 (G.arity G.Input);
  Alcotest.(check int) "inv" 1 (G.arity G.Inv);
  Alcotest.(check int) "nand2" 2 (G.arity G.Nand2);
  Alcotest.(check int) "dff" 1 (G.arity G.Dff)

let test_gate_nominal_delay_positive () =
  List.iter
    (fun k ->
      let d = G.delay k ~slew_in:40.0 ~c_load:5.0 ~params:zeros in
      Alcotest.(check bool) (G.kind_name k) true (d > 0.0))
    [ G.Inv; G.Buf; G.Nand2; G.Nor2; G.And2; G.Or2; G.Xor2; G.Xnor2; G.Dff ]

let test_gate_delay_monotone_in_load () =
  let d1 = G.delay G.Nand2 ~slew_in:40.0 ~c_load:2.0 ~params:zeros in
  let d2 = G.delay G.Nand2 ~slew_in:40.0 ~c_load:20.0 ~params:zeros in
  Alcotest.(check bool) "larger load slower" true (d2 > d1)

let test_gate_delay_monotone_in_slew () =
  let d1 = G.delay G.Inv ~slew_in:10.0 ~c_load:5.0 ~params:zeros in
  let d2 = G.delay G.Inv ~slew_in:80.0 ~c_load:5.0 ~params:zeros in
  Alcotest.(check bool) "slower input slower" true (d2 > d1)

let test_gate_parameter_sensitivities () =
  (* +L slows, +W speeds, +Vt slows (physics sign conventions) *)
  let base = G.delay G.Nand2 ~slew_in:40.0 ~c_load:5.0 ~params:zeros in
  let with_p i v =
    let p = Array.copy zeros in
    p.(i) <- v;
    G.delay G.Nand2 ~slew_in:40.0 ~c_load:5.0 ~params:p
  in
  Alcotest.(check bool) "+L slower" true (with_p 0 1.0 > base);
  Alcotest.(check bool) "+W faster" true (with_p 1 1.0 < base);
  Alcotest.(check bool) "+Vt slower" true (with_p 2 1.0 > base)

let test_gate_quadratic_term () =
  (* the rank-one quadratic makes delay(+3sigma) - base != base - delay(-3sigma) *)
  let d p =
    G.delay G.Inv ~slew_in:40.0 ~c_load:5.0 ~params:[| p; 0.0; 0.0; 0.0 |]
  in
  let up = d 3.0 -. d 0.0 and down = d 0.0 -. d (-3.0) in
  Alcotest.(check bool) "asymmetric response" true (Float.abs (up -. down) > 1e-6)

let test_gate_params_validated () =
  Alcotest.(check bool) "length check" true
    (match G.delay G.Inv ~slew_in:40.0 ~c_load:5.0 ~params:[| 0.0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gate_slew_positive () =
  let s = G.output_slew G.Nor2 ~slew_in:40.0 ~c_load:8.0 ~params:zeros in
  Alcotest.(check bool) "positive" true (s > 0.0)

let test_clk_to_q () =
  Alcotest.(check bool) "positive" true (G.clk_to_q ~params:zeros > 0.0)

(* ---------- Netlist ---------- *)

let test_netlist_structure () =
  let t = tiny () in
  Alcotest.(check int) "size" 4 (N.size t);
  Alcotest.(check int) "logic gates" 2 (N.logic_gate_count t);
  Alcotest.(check (array int)) "inputs" [| 0; 1 |] (N.inputs t);
  Alcotest.(check (array int)) "endpoints" [| 3 |] (N.endpoints t)

let test_netlist_topological_order () =
  let t = tiny () in
  let order = N.topological_order t in
  let pos = Array.make 4 0 in
  Array.iteri (fun i g -> pos.(g) <- i) order;
  Alcotest.(check bool) "fanins first" true (pos.(0) < pos.(2) && pos.(1) < pos.(2) && pos.(2) < pos.(3))

let test_netlist_levels () =
  let t = tiny () in
  let lvl = N.levels t in
  Alcotest.(check int) "input level" 0 lvl.(0);
  Alcotest.(check int) "nand level" 1 lvl.(2);
  Alcotest.(check int) "inv level" 2 lvl.(3);
  Alcotest.(check int) "max" 2 (N.max_level t)

let test_netlist_fanouts () =
  let t = tiny () in
  let f = N.fanouts t in
  Alcotest.(check (array int)) "nand drives inv" [| 3 |] f.(2);
  Alcotest.(check (array int)) "inv drives nothing" [||] f.(3)

let test_netlist_cycle_rejected () =
  let gates =
    [|
      { N.id = 0; name = "a"; kind = G.Input; fanins = [||] };
      { N.id = 1; name = "x"; kind = G.Inv; fanins = [| 2 |] };
      { N.id = 2; name = "y"; kind = G.Inv; fanins = [| 1 |] };
    |]
  in
  Alcotest.(check bool) "cycle raises" true
    (match N.make ~name:"cyc" ~gates ~outputs:[| 2 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_netlist_dff_breaks_cycle () =
  (* a loop through a DFF is legal (sequential feedback) *)
  let gates =
    [|
      { N.id = 0; name = "a"; kind = G.Input; fanins = [||] };
      { N.id = 1; name = "x"; kind = G.Nand2; fanins = [| 0; 2 |] };
      { N.id = 2; name = "q"; kind = G.Dff; fanins = [| 1 |] };
    |]
  in
  let t = N.make ~name:"seq" ~gates ~outputs:[| 1 |] in
  Alcotest.(check (array int)) "dffs" [| 2 |] (N.dffs t);
  (* DFF's fanin gate is also an endpoint *)
  Alcotest.(check (array int)) "endpoints" [| 1 |] (N.endpoints t)

let test_netlist_arity_mismatch () =
  let gates =
    [|
      { N.id = 0; name = "a"; kind = G.Input; fanins = [||] };
      { N.id = 1; name = "bad"; kind = G.Nand2; fanins = [| 0 |] };
    |]
  in
  Alcotest.(check bool) "arity raises" true
    (match N.make ~name:"bad" ~gates ~outputs:[| 1 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- Generator ---------- *)

let test_generator_counts () =
  let spec =
    { Circuit.Generator.name = "t"; n_gates = 200; n_inputs = 12; n_outputs = 9;
      dff_fraction = 0.0; seed = 3 }
  in
  let t = Circuit.Generator.generate spec in
  Alcotest.(check int) "logic gates" 200 (N.logic_gate_count t);
  Alcotest.(check int) "inputs" 12 (Array.length (N.inputs t));
  Alcotest.(check int) "outputs" 9 (Array.length t.N.outputs)

let test_generator_deterministic () =
  let t1 = Circuit.Generator.generate_paper "c880" in
  let t2 = Circuit.Generator.generate_paper "c880" in
  Alcotest.(check bool) "same netlist" true (t1.N.gates = t2.N.gates)

let test_generator_paper_sizes () =
  List.iter
    (fun (name, n) ->
      let t = Circuit.Generator.generate_paper name in
      Alcotest.(check int) name n (N.logic_gate_count t))
    [ ("c880", 383); ("c1355", 546); ("c1908", 880) ]

let test_generator_sequential_has_dffs () =
  let t = Circuit.Generator.generate_paper "s5378" in
  Alcotest.(check bool) "has dffs" true (Array.length (N.dffs t) > 0);
  let c = Circuit.Generator.generate_paper "c1355" in
  Alcotest.(check int) "combinational has none" 0 (Array.length (N.dffs c))

let test_generator_invalid_spec () =
  Alcotest.(check bool) "negative gates" true
    (match
       Circuit.Generator.generate
         { Circuit.Generator.name = "x"; n_gates = 0; n_inputs = 4; n_outputs = 1;
           dff_fraction = 0.0; seed = 1 }
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_generator_unknown_paper_circuit () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Circuit.Generator.paper_spec "c999"))

(* ---------- Bench format ---------- *)

let test_bench_roundtrip () =
  let t = Circuit.Generator.generate_paper "c880" in
  let text = Circuit.Bench_format.print t in
  match Circuit.Bench_format.parse ~name:"c880rt" text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t' ->
      Alcotest.(check int) "gate count preserved" (N.size t) (N.size t');
      Alcotest.(check int) "outputs preserved" (Array.length t.N.outputs)
        (Array.length t'.N.outputs);
      Alcotest.(check int) "levels preserved" (N.max_level t) (N.max_level t')

let test_bench_parse_basic () =
  let src = "# comment\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = NAND(a, b)\ny = NOT(n1)\n" in
  match Circuit.Bench_format.parse ~name:"basic" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok t ->
      Alcotest.(check int) "size" 4 (N.size t);
      Alcotest.(check int) "logic" 2 (N.logic_gate_count t)

let test_bench_parse_wide_gate_decomposition () =
  let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)\n" in
  match Circuit.Bench_format.parse ~name:"wide" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok t ->
      (* 4-input AND -> 3 two-input ANDs *)
      Alcotest.(check int) "decomposed" 3 (N.logic_gate_count t);
      Array.iter
        (fun (g : N.gate) ->
          Alcotest.(check bool) "arity <= 2" true (Array.length g.fanins <= 2))
        t.N.gates

let test_bench_parse_wide_nand () =
  let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NAND(a, b, c)\n" in
  match Circuit.Bench_format.parse ~name:"nand3" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok t ->
      (* AND(a,b) + NAND(_, c) *)
      Alcotest.(check int) "two gates" 2 (N.logic_gate_count t);
      let kinds = Array.map (fun (g : N.gate) -> g.kind) t.N.gates in
      Alcotest.(check bool) "one nand root" true (Array.exists (fun k -> k = G.Nand2) kinds)

let test_bench_parse_dff () =
  let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n" in
  match Circuit.Bench_format.parse ~name:"dff" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok t -> Alcotest.(check int) "one dff" 1 (Array.length (N.dffs t))

let test_bench_parse_errors () =
  Alcotest.(check bool) "undefined signal" true
    (Result.is_error (Circuit.Bench_format.parse ~name:"x" "OUTPUT(y)\ny = NOT(ghost)\n"));
  Alcotest.(check bool) "garbage line" true
    (Result.is_error (Circuit.Bench_format.parse ~name:"x" "this is not bench\n"));
  Alcotest.(check bool) "combinational loop" true
    (Result.is_error
       (Circuit.Bench_format.parse ~name:"x" "INPUT(a)\nx = NOT(y)\ny = NOT(x)\n"))

(* one check per parser error path, asserting the exact message text the
   server relies on when it maps these to typed [netlist_error] replies *)
let check_parse_error text expected_substr =
  match Circuit.Bench_format.parse ~name:"x" text with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" text
  | Error msg ->
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
        n = 0 || scan 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S reports %S (got %S)" text expected_substr msg)
        true (contains expected_substr msg)

let test_bench_error_messages () =
  check_parse_error "OUTPUT(y)\ny = NOT(ghost)\n" {|undefined signal "ghost"|};
  check_parse_error "OUTPUT(y)\n" {|undefined signal "y"|};
  check_parse_error "INPUT(a)\nx = NOT(y)\ny = NOT(x)\n" "combinational loop through";
  check_parse_error "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n" "unsupported function NOT/2";
  check_parse_error "INPUT(a)\nINPUT(b)\ny = DFF(a, b)\n" "unsupported function DFF/2";
  check_parse_error "INPUT(a)\ny = FROB(a)\n" "unsupported function FROB/1";
  check_parse_error "INPUT(a)\ny = NOT a\n" "line 2: malformed gate definition";
  check_parse_error "INPUT(a)\nthis is not bench\n"
    "line 2: expected INPUT(..), OUTPUT(..) or assignment"

let test_bench_file_roundtrip () =
  let t = Circuit.Generator.generate_paper "c880" in
  let path = Filename.temp_file "kle_ssta_test" ".bench" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Circuit.Bench_format.write_file path t;
      match Circuit.Bench_format.parse_file path with
      | Error e -> Alcotest.failf "parse_file: %s" e
      | Ok t' ->
          Alcotest.(check string) "name from basename" (Filename.remove_extension (Filename.basename path)) t'.N.name;
          Alcotest.(check int) "size" (N.size t) (N.size t'))

(* ---------- Placer ---------- *)

let test_place_inside_die () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p = Circuit.Placer.place t in
  Array.iter
    (fun loc ->
      Alcotest.(check bool) "inside" true (Geometry.Rect.contains p.Circuit.Placer.die loc))
    p.Circuit.Placer.locations

let test_place_deterministic () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p1 = Circuit.Placer.place ~seed:5 t and p2 = Circuit.Placer.place ~seed:5 t in
  Alcotest.(check bool) "same locations" true
    (p1.Circuit.Placer.locations = p2.Circuit.Placer.locations)

let total_hpwl p = Array.fold_left ( +. ) 0.0 (Circuit.Placer.hpwl_all p)

let test_place_beats_random () =
  (* connectivity-driven placement must yield smaller total HPWL than random *)
  let t = Circuit.Generator.generate_paper "c1355" in
  let placed = total_hpwl (Circuit.Placer.place t) in
  let rng = Prng.Rng.create ~seed:2 in
  let die = Geometry.Rect.unit_die in
  let locations =
    Array.init (N.size t) (fun _ ->
        Geometry.Point.make
          (Prng.Rng.uniform_range rng ~lo:die.xmin ~hi:die.xmax)
          (Prng.Rng.uniform_range rng ~lo:die.ymin ~hi:die.ymax))
  in
  let random = total_hpwl { Circuit.Placer.netlist = t; locations; die } in
  Alcotest.(check bool)
    (Printf.sprintf "placed %.1f < random %.1f" placed random)
    true (placed < random)

let test_hpwl_zero_for_sinks () =
  let t = tiny () in
  let p = Circuit.Placer.place t in
  check_close ~tol:0.0 "unloaded output" 0.0 (Circuit.Placer.hpwl_all p).(3)

let test_hpwl_all_matches_hpwl () =
  (* each net against its bounding box over the driver and fanout pins *)
  let t = tiny () in
  let p = Circuit.Placer.place t in
  let fanouts = N.fanouts t in
  Array.iteri
    (fun i v ->
      let pins = Array.append [| i |] fanouts.(i) in
      let coord f g = f p.Circuit.Placer.locations.(g) in
      let extent f =
        let cs = Array.map (coord f) pins in
        Array.fold_left Float.max cs.(0) cs -. Array.fold_left Float.min cs.(0) cs
      in
      let bbox =
        if Array.length fanouts.(i) = 0 then 0.0
        else extent (fun l -> l.Geometry.Point.x) +. extent (fun l -> l.Geometry.Point.y)
      in
      check_close "bounding box" bbox v)
    (Circuit.Placer.hpwl_all p)

(* ---------- Wireload ---------- *)

let test_wireload_nonnegative () =
  let t = Circuit.Generator.generate_paper "c880" in
  let wl = Circuit.Wireload.build (Circuit.Placer.place t) in
  Array.iteri
    (fun i load ->
      Alcotest.(check bool) "r >= 0" true (load.Circuit.Wireload.r_wire >= 0.0);
      Alcotest.(check bool) "c >= 0" true (Circuit.Wireload.c_load wl i >= 0.0))
    wl.Circuit.Wireload.loads

let test_wireload_scales_with_die () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p = Circuit.Placer.place t in
  let small = Circuit.Wireload.build ~die_size_mm:1.0 p in
  let large = Circuit.Wireload.build ~die_size_mm:4.0 p in
  (* pick a loaded net *)
  let i =
    let f = N.fanouts t in
    let rec find j = if Array.length f.(j) > 0 then j else find (j + 1) in
    find 0
  in
  Alcotest.(check bool) "wire grows with die" true
    (large.Circuit.Wireload.loads.(i).Circuit.Wireload.c_wire
    > small.Circuit.Wireload.loads.(i).Circuit.Wireload.c_wire)

let test_wireload_pin_caps () =
  let t = tiny () in
  let wl = Circuit.Wireload.build (Circuit.Placer.place t) in
  (* nand (gate 2) drives only the inverter: pin cap = inv c_in *)
  check_close ~tol:1e-12 "pin cap" (G.timing G.Inv).G.c_in
    wl.Circuit.Wireload.loads.(2).Circuit.Wireload.c_pins

(* ---------- qcheck ---------- *)

let prop_generator_valid_dags =
  let gen =
    QCheck.Gen.(
      let* n = int_range 20 300 in
      let* seed = int_range 0 500 in
      let* dff = float_range 0.0 0.2 in
      return (n, seed, dff))
  in
  let arb = QCheck.make gen ~print:(fun (n, s, d) -> Printf.sprintf "(n=%d, seed=%d, dff=%.2f)" n s d) in
  QCheck.Test.make ~name:"generator always produces valid DAGs" ~count:50 arb
    (fun (n, seed, dff_fraction) ->
      let t =
        Circuit.Generator.generate
          { Circuit.Generator.name = "q"; n_gates = n; n_inputs = 8; n_outputs = 4;
            dff_fraction; seed }
      in
      N.logic_gate_count t = n && Array.length (N.topological_order t) = N.size t)

let prop_bench_roundtrip_small =
  QCheck.Test.make ~name:"bench roundtrip preserves structure" ~count:20
    (QCheck.int_range 0 1000) (fun seed ->
      let t =
        Circuit.Generator.generate
          { Circuit.Generator.name = "q"; n_gates = 60; n_inputs = 6; n_outputs = 3;
            dff_fraction = 0.05; seed }
      in
      match Circuit.Bench_format.parse ~name:"q" (Circuit.Bench_format.print t) with
      | Error _ -> false
      | Ok t' -> N.size t' = N.size t && N.max_level t' = N.max_level t)

let () =
  Alcotest.run "circuit"
    [
      ( "gate",
        [
          Alcotest.test_case "arities" `Quick test_gate_arities;
          Alcotest.test_case "nominal delays positive" `Quick test_gate_nominal_delay_positive;
          Alcotest.test_case "monotone in load" `Quick test_gate_delay_monotone_in_load;
          Alcotest.test_case "monotone in input slew" `Quick test_gate_delay_monotone_in_slew;
          Alcotest.test_case "parameter sensitivities" `Quick test_gate_parameter_sensitivities;
          Alcotest.test_case "quadratic term present" `Quick test_gate_quadratic_term;
          Alcotest.test_case "params validated" `Quick test_gate_params_validated;
          Alcotest.test_case "slew positive" `Quick test_gate_slew_positive;
          Alcotest.test_case "clk_to_q" `Quick test_clk_to_q;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "structure" `Quick test_netlist_structure;
          Alcotest.test_case "topological order" `Quick test_netlist_topological_order;
          Alcotest.test_case "levels" `Quick test_netlist_levels;
          Alcotest.test_case "fanouts" `Quick test_netlist_fanouts;
          Alcotest.test_case "cycle rejected" `Quick test_netlist_cycle_rejected;
          Alcotest.test_case "dff breaks cycles" `Quick test_netlist_dff_breaks_cycle;
          Alcotest.test_case "arity mismatch rejected" `Quick test_netlist_arity_mismatch;
        ] );
      ( "generator",
        [
          Alcotest.test_case "counts" `Quick test_generator_counts;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "paper sizes" `Quick test_generator_paper_sizes;
          Alcotest.test_case "sequential circuits have dffs" `Quick test_generator_sequential_has_dffs;
          Alcotest.test_case "invalid spec" `Quick test_generator_invalid_spec;
          Alcotest.test_case "unknown paper name" `Quick test_generator_unknown_paper_circuit;
        ] );
      ( "bench_format",
        [
          Alcotest.test_case "roundtrip c880" `Quick test_bench_roundtrip;
          Alcotest.test_case "parse basic" `Quick test_bench_parse_basic;
          Alcotest.test_case "wide AND decomposition" `Quick test_bench_parse_wide_gate_decomposition;
          Alcotest.test_case "wide NAND decomposition" `Quick test_bench_parse_wide_nand;
          Alcotest.test_case "dff" `Quick test_bench_parse_dff;
          Alcotest.test_case "error reporting" `Quick test_bench_parse_errors;
          Alcotest.test_case "error messages per path" `Quick test_bench_error_messages;
          Alcotest.test_case "file roundtrip" `Quick test_bench_file_roundtrip;
        ] );
      ( "placer",
        [
          Alcotest.test_case "inside the die" `Quick test_place_inside_die;
          Alcotest.test_case "deterministic" `Quick test_place_deterministic;
          Alcotest.test_case "beats random placement" `Quick test_place_beats_random;
          Alcotest.test_case "hpwl of unloaded nets" `Quick test_hpwl_zero_for_sinks;
          Alcotest.test_case "hpwl_all consistency" `Quick test_hpwl_all_matches_hpwl;
        ] );
      ( "wireload",
        [
          Alcotest.test_case "non-negative loads" `Quick test_wireload_nonnegative;
          Alcotest.test_case "scales with die size" `Quick test_wireload_scales_with_die;
          Alcotest.test_case "pin capacitances" `Quick test_wireload_pin_caps;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generator_valid_dags; prop_bench_roundtrip_small ] );
    ]
