(* Hierarchical SSTA: partition invariants, content-hash locality of
   one-gate edits, macro compose vs the flat single-pass engine, jobs
   determinism, and the dependency-aware cache's reuse counters. *)

module Partition = Hier.Partition
module Engine = Hier.Engine
module Edit = Hier.Edit

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hier-test.%d.%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      (try Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir)
       with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* shared fixtures: mirror test_ssta's, with a couple of DFFs so the
   endpoint set mixes primary outputs and register data pins *)
let netlist =
  lazy
    (Circuit.Generator.generate
       { Circuit.Generator.name = "hier"; n_gates = 140; n_inputs = 10;
         n_outputs = 6; dff_fraction = 0.08; seed = 17 })

let setup = lazy (Ssta.Experiment.setup_circuit (Lazy.force netlist))

let fast_config =
  {
    Ssta.Algorithm2.max_area_fraction = 0.004;
    min_angle_deg = 28.0;
    computed_pairs = 80;
    r = Some 25;
  }

let models_fixture =
  lazy
    (let s = Lazy.force setup in
     let a2 =
       Ssta.Algorithm2.prepare ~config:fast_config
         (Ssta.Process.paper_default ())
         s.Ssta.Experiment.locations
     in
     Ssta.Algorithm2.models a2)

let model_key = "hier-test-models"

(* ---------- partition ---------- *)

let test_partition_invariants () =
  let nl = Lazy.force netlist in
  let part = Partition.build ~n_blocks:4 nl in
  let n = Circuit.Netlist.size nl in
  (* every gate in exactly one block, consistent with block_of_gate *)
  let seen = Array.make n 0 in
  Array.iter
    (fun b ->
      Array.iter
        (fun g ->
          seen.(g) <- seen.(g) + 1;
          Alcotest.(check int)
            (Printf.sprintf "gate %d block map" g)
            b.Partition.index
            part.Partition.block_of_gate.(g))
        b.Partition.gates)
    part.Partition.blocks;
  Array.iteri
    (fun g c -> Alcotest.(check int) (Printf.sprintf "gate %d covered once" g) 1 c)
    seen;
  (* cross-block combinational edges point forward; ext_inputs come from
     strictly earlier blocks *)
  Array.iter
    (fun g ->
      match g.Circuit.Netlist.kind with
      | Circuit.Gate.Input | Circuit.Gate.Dff -> ()
      | _ ->
          let bg = part.Partition.block_of_gate.(g.Circuit.Netlist.id) in
          Array.iter
            (fun f ->
              Alcotest.(check bool)
                (Printf.sprintf "edge %d->%d forward" f g.Circuit.Netlist.id)
                true
                (part.Partition.block_of_gate.(f) <= bg))
            g.Circuit.Netlist.fanins)
    nl.Circuit.Netlist.gates;
  Array.iter
    (fun b ->
      Array.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "ext input %d earlier than block %d" e b.Partition.index)
            true
            (part.Partition.block_of_gate.(e) < b.Partition.index))
        b.Partition.ext_inputs)
    part.Partition.blocks

(* a kind swap within a (nand2, nor2) or (and2, or2) pair keeps the pin
   capacitance, so upstream loads (and hashes) stay put *)
let find_swappable nl =
  let found = ref None in
  Array.iter
    (fun g ->
      if !found = None then
        match g.Circuit.Netlist.kind with
        | Circuit.Gate.Nand2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.Nor2)
        | Circuit.Gate.Nor2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.Nand2)
        | Circuit.Gate.And2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.Or2)
        | Circuit.Gate.Or2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.And2)
        | _ -> ())
    nl.Circuit.Netlist.gates;
  match !found with
  | Some e -> e
  | None -> Alcotest.fail "fixture netlist has no swappable 2-input gate"

let test_edit_dirties_one_block () =
  let nl = Lazy.force netlist in
  let s = Lazy.force setup in
  let gate, kind = find_swappable nl in
  let nl' =
    match Edit.apply nl { Edit.gate; kind } with
    | Ok nl' -> nl'
    | Error m -> Alcotest.fail m
  in
  let s' = Ssta.Experiment.setup_circuit nl' in
  let part = Partition.build ~n_blocks:4 nl in
  let part' = Partition.build ~n_blocks:4 nl' in
  Alcotest.(check int) "same block count"
    (Array.length part.Partition.blocks)
    (Array.length part'.Partition.blocks);
  let dirty = ref [] in
  Array.iteri
    (fun i _ ->
      let h = Partition.content_hash part ~setup:s i in
      let h' = Partition.content_hash part' ~setup:s' i in
      if h <> h' then dirty := i :: !dirty)
    part.Partition.blocks;
  Alcotest.(check (list int))
    "exactly the edited gate's block is dirty"
    [ part.Partition.block_of_gate.(gate) ]
    (List.rev !dirty)

let test_edit_rejects_bad_targets () =
  let nl = Lazy.force netlist in
  Alcotest.(check bool) "out of range" true
    (Result.is_error (Edit.apply nl { Edit.gate = -1; kind = Circuit.Gate.Inv }));
  Alcotest.(check bool) "source not editable" true
    (Result.is_error
       (Edit.apply nl
          { Edit.gate = (Circuit.Netlist.inputs nl).(0); kind = Circuit.Gate.Inv }));
  Alcotest.(check bool) "kind parse rejects dff" true
    (Result.is_error (Edit.kind_of_string "dff"));
  (match Edit.kind_of_string "nor2" with
  | Ok Circuit.Gate.Nor2 -> ()
  | _ -> Alcotest.fail "nor2 should parse");
  let gate, kind = find_swappable nl in
  ignore gate;
  Alcotest.(check string) "kind roundtrip"
    (Edit.kind_to_string kind)
    (Edit.kind_to_string
       (Result.get_ok (Edit.kind_of_string (Edit.kind_to_string kind))))

(* ---------- compose vs flat ---------- *)

let test_retime_matches_flat () =
  let s = Lazy.force setup in
  let models = Lazy.force models_fixture in
  let flat = Ssta.Block_ssta.run s ~models in
  let res = Engine.retime ~n_blocks:3 s ~models ~model_key in
  Alcotest.(check int) "basis dim" flat.Ssta.Block_ssta.basis_dim res.Engine.basis_dim;
  Alcotest.(check int) "endpoint count"
    (Array.length flat.Ssta.Block_ssta.endpoint_forms)
    (Array.length res.Engine.endpoint_forms);
  let e_mu, e_sigma = Engine.validate_against_flat res ~flat in
  Alcotest.(check bool)
    (Printf.sprintf "worst mean within 0.5%% (got %.4f%%)" e_mu)
    true (e_mu < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "worst sigma within 8%% (got %.4f%%)" e_sigma)
    true (e_sigma < 8.0);
  (* no cache: everything extracted *)
  Alcotest.(check int) "reused" 0 res.Engine.counters.Engine.blocks_reused;
  Alcotest.(check int) "recomputed" res.Engine.n_blocks
    res.Engine.counters.Engine.blocks_recomputed

let check_form_identical msg (a : Ssta.Canonical.t) (b : Ssta.Canonical.t) =
  Alcotest.(check int64) (msg ^ " mean bits")
    (Int64.bits_of_float a.Ssta.Canonical.mean)
    (Int64.bits_of_float b.Ssta.Canonical.mean);
  Alcotest.(check int64) (msg ^ " indep bits")
    (Int64.bits_of_float a.Ssta.Canonical.indep)
    (Int64.bits_of_float b.Ssta.Canonical.indep);
  Alcotest.(check int) (msg ^ " dim") (Ssta.Canonical.dim a) (Ssta.Canonical.dim b);
  Array.iteri
    (fun i v ->
      Alcotest.(check int64)
        (Printf.sprintf "%s sens %d bits" msg i)
        (Int64.bits_of_float v)
        (Int64.bits_of_float b.Ssta.Canonical.sens.(i)))
    a.Ssta.Canonical.sens

let test_retime_jobs_bit_identical () =
  let s = Lazy.force setup in
  let models = Lazy.force models_fixture in
  let r1 = Engine.retime ~n_blocks:4 ~jobs:1 s ~models ~model_key in
  let r2 = Engine.retime ~n_blocks:4 ~jobs:2 s ~models ~model_key in
  check_form_identical "worst" r1.Engine.worst r2.Engine.worst;
  Array.iteri
    (fun i f ->
      check_form_identical (Printf.sprintf "endpoint %d" i) f
        r2.Engine.endpoint_forms.(i))
    r1.Engine.endpoint_forms

(* ---------- dependency-aware cache ---------- *)

let test_retime_cache_counters () =
  with_tmp_dir (fun dir ->
      let s = Lazy.force setup in
      let nl = Lazy.force netlist in
      let models = Lazy.force models_fixture in
      let store = Persist.Store.open_ ~dir () in
      let dg = Persist.Depgraph.create store in
      (* cold: every macro extracted *)
      let cold = Engine.retime ~n_blocks:4 ~cache:dg s ~models ~model_key in
      let nb = cold.Engine.n_blocks in
      Alcotest.(check int) "cold reused" 0 cold.Engine.counters.Engine.blocks_reused;
      Alcotest.(check int) "cold recomputed" nb
        cold.Engine.counters.Engine.blocks_recomputed;
      (* warm: the stitched result itself is served *)
      let warm = Engine.retime ~n_blocks:4 ~cache:dg s ~models ~model_key in
      Alcotest.(check int) "warm reused" nb warm.Engine.counters.Engine.blocks_reused;
      Alcotest.(check int) "warm recomputed" 0
        warm.Engine.counters.Engine.blocks_recomputed;
      check_form_identical "warm == cold" cold.Engine.worst warm.Engine.worst;
      (* one-gate edit: exactly the dirty block re-extracts *)
      let gate, kind = find_swappable nl in
      let nl' = Result.get_ok (Edit.apply nl { Edit.gate; kind }) in
      let s' = Ssta.Experiment.setup_circuit nl' in
      let edited = Engine.retime ~n_blocks:4 ~cache:dg s' ~models ~model_key in
      Alcotest.(check int) "edit recomputed" 1
        edited.Engine.counters.Engine.blocks_recomputed;
      Alcotest.(check int) "edit reused" (nb - 1)
        edited.Engine.counters.Engine.blocks_reused;
      (* the edited analysis agrees with a flat pass over the edited design *)
      let flat' = Ssta.Block_ssta.run s' ~models in
      let e_mu, e_sigma = Engine.validate_against_flat edited ~flat:flat' in
      Alcotest.(check bool)
        (Printf.sprintf "edited mean within 0.5%% (got %.4f%%)" e_mu)
        true (e_mu < 0.5);
      Alcotest.(check bool)
        (Printf.sprintf "edited sigma within 8%% (got %.4f%%)" e_sigma)
        true (e_sigma < 8.0))

let test_retime_invalidate_targets_one_block () =
  with_tmp_dir (fun dir ->
      let s = Lazy.force setup in
      let nl = Lazy.force netlist in
      let models = Lazy.force models_fixture in
      let store = Persist.Store.open_ ~dir () in
      let dg = Persist.Depgraph.create store in
      let cold = Engine.retime ~n_blocks:4 ~cache:dg s ~models ~model_key in
      let nb = cold.Engine.n_blocks in
      (* invalidate one macro by address: the stitched result goes with it *)
      let part = Partition.build ~n_blocks:4 nl in
      let part_hash = Partition.content_hash part ~setup:s 1 in
      let removed =
        Persist.Depgraph.invalidate dg (Engine.macro_node ~part_hash ~model_key)
      in
      Alcotest.(check bool) "macro + stitched removed" true (List.length removed >= 2);
      let again = Engine.retime ~n_blocks:4 ~cache:dg s ~models ~model_key in
      Alcotest.(check int) "only the invalidated block re-extracts" 1
        again.Engine.counters.Engine.blocks_recomputed;
      Alcotest.(check int) "others reused" (nb - 1)
        again.Engine.counters.Engine.blocks_reused;
      check_form_identical "identical after rebuild" cold.Engine.worst
        again.Engine.worst)

let () =
  Alcotest.run "hier"
    [
      ( "partition",
        [
          Alcotest.test_case "invariants" `Quick test_partition_invariants;
          Alcotest.test_case "one-gate edit dirties one block" `Quick
            test_edit_dirties_one_block;
          Alcotest.test_case "edit validation" `Quick test_edit_rejects_bad_targets;
        ] );
      ( "engine",
        [
          Alcotest.test_case "compose matches flat" `Quick test_retime_matches_flat;
          Alcotest.test_case "jobs bit-identical" `Quick test_retime_jobs_bit_identical;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cold/warm/edit counters" `Quick test_retime_cache_counters;
          Alcotest.test_case "invalidate targets one block" `Quick
            test_retime_invalidate_targets_one_block;
        ] );
    ]
