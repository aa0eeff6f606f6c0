(* Log-linear HDR-style histogram.

   Layout (fixed for every instance, named "log-linear-5"):
   - values 0..31 get exact unit buckets (index = value);
   - a value v >= 32 with top bit position k (i.e. 2^k <= v < 2^(k+1))
     lands in index (k - 4) * 32 + ((v lsr (k - 5)) - 32): 32 sub-buckets
     per octave, each of width 2^(k-5), so the representative midpoint is
     within ~3% of any member value.

   The two regimes are continuous: for v in 32..63, k = 5 and the formula
   reduces to index = v. OCaml ints top out below 2^62, so k <= 61 and
   the highest index is (61 - 4) * 32 + 31 = 1855. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)
let layout = "log-linear-" ^ string_of_int sub_bits
let num_buckets = (61 - sub_bits + 2) * sub_count (* 1856 *)

type t = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
}

let create () =
  {
    buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0;
  }

(* position of the highest set bit; v >= 1 *)
let top_bit v =
  let k = ref 0 and v = ref v in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

let bucket_index v =
  let v = if v < 0 then 0 else v in
  if v < sub_count then v
  else
    let k = top_bit v in
    ((k - sub_bits + 1) * sub_count) + ((v lsr (k - sub_bits)) - sub_count)

let bucket_value idx =
  if idx < sub_count then idx
  else
    let k = (idx / sub_count) + sub_bits - 1 in
    let sub = idx mod sub_count in
    let width = 1 lsl (k - sub_bits) in
    ((sub_count + sub) * width) + (width / 2)

let record t v =
  let v = if v < 0 then 0 else v in
  Atomic.incr t.buckets.(bucket_index v);
  Atomic.incr t.count;
  ignore (Atomic.fetch_and_add t.sum v)

let count t = Atomic.get t.count
let sum t = Atomic.get t.sum

let quantile t p =
  let n = Atomic.get t.count in
  if n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let seen = ref 0 and idx = ref 0 and found = ref 0 in
    (try
       while !idx < num_buckets do
         seen := !seen + Atomic.get t.buckets.(!idx);
         if !seen >= rank then begin
           found := bucket_value !idx;
           raise Exit
         end;
         incr idx
       done
     with Exit -> ());
    !found
  end

let max_value t =
  let best = ref 0 in
  for i = 0 to num_buckets - 1 do
    if Atomic.get t.buckets.(i) > 0 then best := bucket_value i
  done;
  !best

let reset t =
  for i = 0 to num_buckets - 1 do
    Atomic.set t.buckets.(i) 0
  done;
  Atomic.set t.count 0;
  Atomic.set t.sum 0

let buckets t =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    let c = Atomic.get t.buckets.(i) in
    if c > 0 then acc := (i, c) :: !acc
  done;
  !acc

let version = 1

let to_json t =
  Jsonx.Obj
    [
      ("v", Jsonx.Num (float_of_int version));
      ("layout", Jsonx.Str layout);
      ("count", Jsonx.Num (float_of_int (count t)));
      ("sum", Jsonx.Num (float_of_int (sum t)));
      ( "buckets",
        Jsonx.List
          (List.map
             (fun (i, c) ->
               Jsonx.List [ Jsonx.Num (float_of_int i); Jsonx.Num (float_of_int c) ])
             (buckets t)) );
    ]
