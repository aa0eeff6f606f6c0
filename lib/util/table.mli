(** Aligned plain-text tables, used by the benchmark harness to print
    paper-style result tables. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : columns:(string * align) list -> t
(** [create ~columns] starts a table with the given header labels and per
    column alignment. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row. Raises [Invalid_argument] if the number
    of cells differs from the number of columns. *)


val to_string : t -> string
(** [to_string t] renders the table with aligned columns. *)

val print : t -> unit
(** [print t] writes the rendered table to standard output. *)

val fmt_float : ?digits:int -> float -> string
(** [fmt_float ~digits x] formats [x] with [digits] fractional digits
    (default 3). *)
