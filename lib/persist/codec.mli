(** Explicit, versioned binary encoding primitives.

    This is deliberately {e not} [Marshal]: every byte written is produced
    by an explicit rule below, so the on-disk format is stable across
    compiler versions, checkable (a decoder can never segfault on corrupt
    input — it raises {!Error}), and evolvable behind the entity versions
    of {!Entity}. Integers are unsigned LEB128 varints, floats are
    IEEE-754 bit patterns in little-endian order (exact round-trip of
    every finite and non-finite value), strings and arrays are
    length-prefixed. *)

exception Error of string
(** Raised by every [read_*] function on truncated or malformed input.
    Callers (the {!Store}) map it to a typed [`Degraded_fallback]
    diagnostic and recompute. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer
val contents : writer -> string

val write_u8 : writer -> int -> unit
(** Single byte; raises [Invalid_argument] outside [0, 255]. *)

val write_uint : writer -> int -> unit
(** Unsigned LEB128 varint; raises [Invalid_argument] on negatives. *)

val write_float : writer -> float -> unit
val write_fixed64 : writer -> int64 -> unit

val write_string : writer -> string -> unit

val write_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
val write_float_array : writer -> float array -> unit

(** {1 Reading} *)

type reader

val reader : string -> reader
(** A cursor over the whole string, starting at offset 0. *)

val remaining : reader -> int

val read_u8 : reader -> int
val read_uint : reader -> int
val read_float : reader -> float
val read_fixed64 : reader -> int64
val read_string : reader -> string

val read_array : reader -> (reader -> 'a) -> 'a array
val read_float_array : reader -> float array

val expect_end : reader -> unit
(** Raises {!Error} when bytes remain — trailing garbage is corruption. *)

(** {1 Checksum} *)

val fnv64 : string -> int64
(** FNV-1a 64-bit hash of the whole string — the store's payload checksum
    and content-address hash. *)

val fnv64_hex : string -> string
(** {!fnv64} rendered as 16 lowercase hex digits. *)
