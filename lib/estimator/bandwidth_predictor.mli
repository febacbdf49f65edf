(** Bandwidth prediction from observed transfers (the NWSLite-style
    extension of the paper's Section 6).

    The communication manager reports every physical transfer; a
    size-weighted exponentially-moving average over the observed
    throughput feeds the dynamic estimator, so offload decisions adapt
    when the real link diverges from the configured one. *)

type t

val create : initial_bps:float -> t
(** [create ~initial_bps] starts believing [initial_bps].
    @raise Invalid_argument if [initial_bps <= 0]. *)

val observe : t -> bytes:int -> seconds:float -> unit
(** Report one physical transfer of [bytes] that took [seconds].
    Transfers under 2 KiB are control messages and ignored; larger
    ones move the belief further, one EWMA step of weight 0.35 per
    64 KiB. *)

val predict_bps : t -> float
(** Current belief, bits per second. *)

val sample_count : t -> int
(** Accepted observations so far. *)
