(** Minimal JSON reader/writer for the serving protocol.

    The repo has no JSON dependency; this is the small, total subset the
    JSON-lines protocol needs: full RFC 8259 value syntax on input
    (including [\uXXXX] escapes, decoded to UTF-8), one-line compact
    output. Numbers are carried as [float]; integral values within exact
    [float] range print without a decimal point. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. Error
    strings mention the byte offset. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines, suitable for JSON-lines). *)

val escape_into : Buffer.t -> string -> unit
(** [escape_into b s] appends [s] to [b] as a quoted JSON string literal:
    quotes, backslashes and control characters escaped, every other byte
    copied verbatim. *)

(** {1 Accessors} — shallow, [option]-typed *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val as_str : t -> string option
val as_num : t -> float option

val as_int : t -> int option
(** [Num] holding an exactly integral value. *)

val as_bool : t -> bool option
val as_obj : t -> (string * t) list option
