exception Error of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* ---------------------------------------------------------------- *)
(* writing *)

type writer = Buffer.t

let writer () = Buffer.create 256
let contents = Buffer.contents

let write_u8 b v =
  if v < 0 || v > 255 then invalid_arg "Codec.write_u8: out of range";
  Buffer.add_char b (Char.chr v)

let write_uint b v =
  if v < 0 then invalid_arg "Codec.write_uint: negative";
  let rec loop v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
      loop (v lsr 7)
    end
  in
  loop v

let write_fixed64 b bits =
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

let write_float b v = write_fixed64 b (Int64.bits_of_float v)

let write_string b s =
  write_uint b (String.length s);
  Buffer.add_string b s

let write_array b f a =
  write_uint b (Array.length a);
  Array.iter (fun v -> f b v) a

let write_float_array b a = write_array b write_float a

(* ---------------------------------------------------------------- *)
(* reading *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let remaining r = String.length r.data - r.pos

let read_u8 r =
  if r.pos >= String.length r.data then corrupt "unexpected end of input at byte %d" r.pos;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_uint r =
  let rec loop shift acc =
    if shift > Sys.int_size then corrupt "varint overflow at byte %d" r.pos;
    let byte = read_u8 r in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let read_fixed64 r =
  if remaining r < 8 then corrupt "truncated 64-bit field at byte %d" r.pos;
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits :=
      Int64.logor
        (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  !bits

let read_float r = Int64.float_of_bits (read_fixed64 r)

let read_string r =
  let n = read_uint r in
  if remaining r < n then corrupt "truncated string (%d bytes) at byte %d" n r.pos;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s


let read_array r f =
  let n = read_uint r in
  (* guard against absurd lengths from corrupt headers before allocating *)
  if n > remaining r then corrupt "array length %d exceeds remaining input" n;
  Array.init n (fun _ -> f r)

let read_float_array r = read_array r read_float

let expect_end r =
  if remaining r > 0 then corrupt "%d trailing bytes after payload" (remaining r)

(* ---------------------------------------------------------------- *)
(* FNV-1a 64 *)

let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let fnv64_hex s = Printf.sprintf "%016Lx" (fnv64 s)
