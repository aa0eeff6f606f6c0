(* xoshiro256++ (Blackman & Vigna), seeded through splitmix64.

   The four state words live unboxed in one 32-byte buffer (s0..s3 at
   offsets 0, 8, 16, 24, native byte order), so a draw reads and writes
   them without allocating an [Int64] box. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* four consecutive splitmix64 outputs of [state] *)
let seeded state =
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  make s0 s1 s2 s3

let create ~seed = seeded (ref (Int64.of_int seed))

let substream ~seed ~stream =
  (* counter-based derivation: hash seed and stream index independently
     through splitmix64 and combine, so stream k of a run is a fixed
     function of (seed, k) — no generator state is threaded between
     streams, which lets batches be sampled in any order or in parallel
     while staying bit-reproducible *)
  let a = ref (Int64.of_int seed) in
  let b = ref (Int64.lognot (Int64.of_int stream)) in
  seeded (ref (Int64.logxor (splitmix64 a) (splitmix64 b)))

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let split t = seeded (ref (bits64 t))

let copy = Bytes.copy

let[@inline] uniform t =
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53

let uniform_range t ~lo ~hi =
  if hi <= lo then invalid_arg "Rng.uniform_range: requires lo < hi";
  lo +. ((hi -. lo) *. uniform t)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: requires n > 0";
  (* rejection sampling to avoid modulo bias *)
  let n64 = Int64.of_int n in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int n64) in
  let rec draw () =
    let v = Int64.shift_right_logical (bits64 t) 1 in
    if v >= limit then draw () else Int64.to_int (Int64.rem v n64)
  in
  draw ()

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
