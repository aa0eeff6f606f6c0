(* One-gate design edits: target validation and the kind names the
   retime protocol carries. *)

module Edit = Hier.Edit

let netlist =
  lazy
    (Circuit.Generator.generate
       { Circuit.Generator.name = "hier"; n_gates = 140; n_inputs = 10;
         n_outputs = 6; dff_fraction = 0.08; seed = 17 })

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
  List.iter
    (fun kind ->
      Alcotest.(check string) "kind roundtrip" (Edit.kind_to_string kind)
        (Edit.kind_to_string
           (Result.get_ok (Edit.kind_of_string (Edit.kind_to_string kind)))))
    Circuit.Gate.[ Inv; Buf; Nand2; Nor2; And2; Or2; Xor2; Xnor2 ]

let () =
  Alcotest.run "hier"
    [
      (* the group keeps its historical name so the test id stays stable *)
      ( "partition",
        [ Alcotest.test_case "edit validation" `Quick test_edit_rejects_bad_targets ] );
    ]
