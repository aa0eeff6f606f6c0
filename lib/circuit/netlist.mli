(** Gate-level netlists.

    A netlist is an array of gates; gate [i] drives net [i] (single-output
    cells). [Dff] gates are sequential: their output is a timing start point
    and their data input a timing end point, so combinational topological
    ordering treats them as sources. *)

type gate = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanins : int array; (* driving gate ids, length = Gate.arity kind *)
}

type t = {
  name : string;
  gates : gate array; (* gates.(i).id = i *)
  outputs : int array; (* primary-output gate ids *)
}

val make : name:string -> gates:gate array -> outputs:int array -> t
(** Validates and builds the netlist. Raises [Invalid_argument] when ids are
    inconsistent, arities are wrong, fanins dangle, an output id is invalid,
    or the combinational core contains a cycle. *)

val size : t -> int
(** Total number of gates, including [Input] pseudo-gates. *)

val logic_gate_count : t -> int
(** Number of non-[Input] gates — the [N_g] of the paper's Table 1. *)

val inputs : t -> int array
(** Ids of [Input] pseudo-gates. *)

val dffs : t -> int array

val fanouts : t -> int array array
(** [fanouts t].(i) lists the gates that gate [i] drives (data pins only). *)

val topological_order : t -> int array
(** Gate ids in a valid combinational evaluation order ([Input]s and [Dff]s
    first as sources; every other gate after all its fanins). *)

val endpoints : t -> int array
(** Timing end points: primary outputs and [Dff] data-input drivers are
    observed; returns the union of [outputs] and fanin gates of every DFF. *)

val levels : t -> int array
(** Combinational depth of each gate (sources at level 0). *)

val max_level : t -> int
