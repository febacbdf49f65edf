(** Log-bucketed (HDR-style) histogram for latency and byte-size
    distributions.

    Buckets are geometrically spaced (8 per octave, ≈9% relative
    width) and each keeps a count and a sum, so {!quantile} reports
    the mean of the bucket the rank falls in — exact whenever the
    bucket holds a single distinct value, within the bucket width
    otherwise.  Histograms merge losslessly, enabling fleet-level
    percentiles over per-run histograms. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample.  NaN samples are ignored; values at or below
    1e-12 share the lowest bucket, and values above about 1.8e296
    (+inf included) the highest. *)

val count : t -> int
val sum : t -> float

val min : t -> float
(** Exact minimum; NaN when empty. *)

val max : t -> float
(** Exact maximum; NaN when empty. *)

val mean : t -> float
(** Exact mean; NaN when empty. *)

val quantile : t -> float -> float
(** [quantile t q] with [q] in [0,1]: nearest-rank (rank
    [ceil (q*n)], 1-based), reported as the containing bucket's mean.
    NaN when empty; raises [Invalid_argument] outside [0,1]. *)

val note_exemplar : t -> trace_id:string -> float -> unit
(** Attach a bounded reservoir exemplar: at most one per bucket (the
    largest value wins), at most 16 per histogram (lowest buckets shed
    first).  Out-of-band — exemplars never affect counts or quantiles,
    and {!add} never creates them, so the hot path stays
    allocation-free.  NaN values are ignored. *)

val exemplars : t -> (string * float) list
(** (trace id, value) pairs in ascending bucket order. *)

val count_le : t -> float -> int
(** Samples in buckets whose index is at most [le]'s — the cumulative
    count an OpenMetrics [le] bucket reports, exact to the ≈9% bucket
    width. *)

val merge_into : into:t -> t -> unit
(** Bucket-wise addition of the second histogram into [into];
    exemplars fold through the same reservoir policy. *)

val merge : t list -> t
(** Fresh histogram holding the bucket-wise sum of all inputs. *)
