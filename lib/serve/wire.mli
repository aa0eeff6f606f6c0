(** The two wires of the serving protocol: how a message travels, not what
    it says.

    Every message is a {!Jsonx.t} tree whose schema belongs to {!Protocol}
    alone. The JSON wire writes the tree as one compact line. The binary
    wire writes it as a tagged tree ({!encode_jsonx}) in a length-prefixed
    frame built on {!Persist.Codec}, so the numeric vectors of
    payload-heavy responses ship as raw IEEE-754 bytes instead of JSON
    text. One frame per message:

    {v
    magic0 0xB5 | magic1 0x7A | version 0x03 | len : fixed32 LE | tagged tree
    v}

    [0xB5] is never the first byte of a JSON-lines message, so a server can
    sniff the first byte of a connection and pick the wire per connection.
    Both wires carry the same tree, so a request answered over either wire
    yields a bit-identical result. *)

val magic0 : char
(** First frame byte, [0xB5] — the per-connection wire sniff key. *)

val magic1 : char

val version : int
(** The frame version (3), the only one accepted. Frames of the older
    per-method layouts (versions 1 and 2) read as [`Corrupt]. *)

val max_payload : int
(** Upper bound on the frame length field (16 MiB). Larger lengths are
    rejected with a typed error {e before} any allocation — the framing
    analogue of the [Entity.read_mat] adversarial-header guard. *)

type read_error =
  [ `Eof  (** clean end of stream before any frame byte *)
  | `Corrupt of string
    (** bad magic/version, oversized or truncated frame — the connection
        cannot be resynchronised and must be closed *) ]

val frame : string -> string
(** Wrap a payload in a frame header; raises [Invalid_argument] when the
    payload exceeds {!max_payload}. *)

val unframe : string -> (string, read_error) result
(** Strip and validate the header of exactly one whole frame. *)

val read_frame : ?magic_consumed:bool -> in_channel -> (string, read_error) result
(** Blocking frame read. [~magic_consumed:true] means the caller already
    consumed {!magic0} while sniffing the wire. *)

(** {1 Structured values} *)

val encode_jsonx : Persist.Codec.writer -> Jsonx.t -> unit
(** Tagged binary encoding of a JSON tree. A non-empty [List] of all-[Num]
    elements is packed as a raw float array ({!Persist.Codec.write_float_array})
    — zero escape cost for the numeric vectors that dominate payload-heavy
    responses. *)

val decode_jsonx : Persist.Codec.reader -> Jsonx.t
(** Inverse of {!encode_jsonx} (float-array packing decodes back to a [List]
    of [Num]). Raises {!Persist.Codec.Error} on malformed input, including a
    nesting-depth cap against stack-smashing payloads. *)

(** {1 Messages} *)

val encode : [ `Json | `Binary ] -> Jsonx.t -> string
(** One whole message: a JSON line (without its newline) or a whole frame.
    Raises [Invalid_argument] when a frame payload would exceed
    {!max_payload}. *)

val decode : [ `Json | `Binary ] -> string -> (Jsonx.t, string) result
(** Read one message body: a JSON line, or a frame {e payload} (header
    already stripped by {!read_frame}/{!unframe}). [Error] carries the
    reason the body is not a tree; what the tree means is {!Protocol}'s
    to decide. *)
