(** Typed binary codecs for the pipeline's reusable artifacts.

    Each entity carries a [kind] tag and a format [version]; the {!Store}
    writes both into the file header and refuses (→ recompute) entries
    whose version no longer matches, so codec evolution is a version bump,
    never a silent misread.

    Decoders rebuild {e derived} state through the same constructors the
    live pipeline uses ([Geometry.Mesh.make], [Kle.Model.create]), so a
    loaded artifact is revalidated and bit-identical to a freshly computed
    one: the stored floats (eigenvalues, basis coefficients, points)
    round-trip through IEEE-754 bit patterns exactly, and everything else
    is a deterministic function of them.

    Only circuit-independent artifacts have a codec. A circuit setup (a
    placement plus the wire loads and timer derived from it) costs
    milliseconds to rebuild, most of which a decoder would have to redo
    anyway, so the server keeps setups in memory and never writes them. *)

type 'a t = {
  kind : string;  (** file-kind tag, e.g. ["kle-model"] *)
  version : int;  (** bumped on any encoding change *)
  encode : Codec.writer -> 'a -> unit;
  decode : Codec.reader -> 'a;  (** raises {!Codec.Error} on corrupt input *)
}

val kernel : Kernels.Kernel.t t
(** All kernel families except the test-only [Faulty] decorator, whose
    closure-valued fault plan has no stable encoding — [encode] raises
    [Invalid_argument] on it. *)

val kernel_spec : Kernels.Kernel.t -> string
(** Canonical one-line spec (family + parameters at full precision) — the
    kernel's contribution to cache keys. Raises [Invalid_argument] on
    [Faulty]. *)

val mesh : Geometry.Mesh.t t
(** Domain + points + triangles; areas/centroids are re-derived (and the
    triangles re-validated) by [Geometry.Mesh.make]. *)

val solution : Kle.Galerkin.solution t
(** The circuit-independent KLE eigensolution: mesh, kernel, quadrature,
    eigenvalues, basis-coefficient matrix — the artifact whose recompute
    cost the store exists to amortize. *)

val model : Kle.Model.t t
(** Truncated model: solution + retained [r]; the locator is rebuilt by
    [Kle.Model.create]. *)

val to_string : 'a t -> 'a -> string
(** Encode to a standalone payload (no store header). *)

val of_string : 'a t -> string -> 'a
(** Decode a {!to_string} payload, checking that every byte is consumed.
    Raises {!Codec.Error}. *)
