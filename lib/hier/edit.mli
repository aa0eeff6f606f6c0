(** One-gate design edits for re-timing: swap a logic gate's kind while
    keeping the netlist's ids, connectivity and placement stable, so the
    edited design differs from the original in that one gate only. *)

type t = { gate : int; kind : Circuit.Gate.kind }

val kind_of_string : string -> (Circuit.Gate.kind, string) result
(** Parse a lowercase logic-kind name ([inv], [buf], [nand2], [nor2],
    [and2], [or2], [xor2], [xnor2]); [Input]/[Dff] are not valid edit
    targets and not accepted. The error names the accepted set. *)

val kind_to_string : Circuit.Gate.kind -> string
(** Inverse of {!kind_of_string} for logic kinds; raises
    [Invalid_argument] on [Input]/[Dff]. *)

val apply : Circuit.Netlist.t -> t -> (Circuit.Netlist.t, string) result
(** Rebuild the netlist with the gate's kind replaced. Errors (with a
    client-presentable message) when the gate id is out of range, the
    target is an [Input]/[Dff], or the new kind's arity differs. *)
