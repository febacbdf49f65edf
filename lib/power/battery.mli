(** Battery accounting: integrates the power model over the simulated
    timeline.  Each recorded segment goes to the sink as a
    Power_state row, the raw material of Figure 8. *)

type t

val create : ?sink:No_trace.Trace.sink -> Power_model.t -> t
(** [sink] receives one {!No_trace.Trace.Power_state} event per
    recorded segment, stamped with the segment start. *)

val spend : t -> from_s:float -> to_s:float -> Power_model.state -> unit
(** Record that the device was in the given state over the interval.
    Zero-length intervals are dropped (and emit no event).
    @raise Invalid_argument on negative durations. *)

val energy_mj : t -> float
(** Total energy so far (mW·s = mJ). *)
