(** Log-linear (HDR-style) latency histogram with a fixed bucket layout.

    Values are non-negative integers (by convention nanoseconds). The
    layout is value-range independent and identical for every instance:
    exact buckets below 32, then 32 sub-buckets per power of two —
    bounding relative error at ~3%. Recording is lock-free (one atomic
    fetch-and-add per bucket); because addition commutes, the bucket
    counts after recording a given multiset of samples are bit-identical
    regardless of how the samples were interleaved across domains.

    Quantile queries return the bucket midpoint, which is monotone in the
    bucket index, so [quantile h p <= quantile h q] whenever [p <= q]. *)

type t

val create : unit -> t
(** A fresh, empty histogram. *)

val record : t -> int -> unit
(** Record one value; negative values clamp to 0. Lock-free and safe from
    any number of domains concurrently. *)

val count : t -> int
(** Total number of recorded values. *)

val sum : t -> int
(** Sum of recorded values (exact, not bucket-quantised). *)

val bucket_index : int -> int
(** Bucket index a value lands in (exposed for tests). *)

val bucket_value : int -> int
(** Representative (midpoint) value of a bucket (exposed for tests). *)

val quantile : t -> float -> int
(** [quantile h p] for [p] in [0, 1]: the representative value of the
    bucket holding the sample of rank [ceil (p * count)]. 0 when empty. *)

val max_value : t -> int
(** Representative value of the highest occupied bucket; 0 when empty. *)

val reset : t -> unit
(** Zero every bucket, the count and the sum. Not atomic with respect to
    concurrent recorders; callers quiesce recording first. *)

val buckets : t -> (int * int) list
(** Sparse [(index, count)] pairs of occupied buckets, ascending index. *)

val to_json : t -> Jsonx.t
(** Versioned snapshot: [{"v":1,"layout":"log-linear-5","count":..,
    "sum":..,"buckets":[[index,count],..]}]. *)
