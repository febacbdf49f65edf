(** Wireless link model: the two evaluation networks of the paper
    (802.11n "slow", 802.11ac "fast") plus a congested profile used by
    tests and the adaptive-network example.

    Simulation scales: {!sim_bw_scale} and {!sim_latency_scale} slow
    the link relative to the real radios, calibrated so our
    proportionally smaller workloads sit on the same side of the
    Equation-1 offload/refuse boundary as the paper's (see
    DESIGN.md §6).  The stored parameters are the real radios'. *)

type t = {
  name : string;
  nominal_bps : float;    (** radio's nominal rate *)
  efficiency : float;     (** fraction of nominal actually achieved *)
  latency_s : float;      (** one-way per-message latency (real) *)
  fast_radio : bool;
      (** the 802.11ac radio: true on {!fast_wifi} only; selects the
          handset's remote-I/O power level *)
}

val sim_bw_scale : float
val sim_latency_scale : float

val slow_wifi : t
(** 802.11n, max 144 Mbps — the paper's slow environment. *)

val fast_wifi : t
(** 802.11ac, max 844 Mbps — the paper's fast environment. *)

val congested : t
(** A link bad enough that dynamic estimation always refuses. *)

val all : t list
val by_name : string -> t option

val effective_bps : t -> float
(** Achievable bandwidth on the simulation scale. *)

val effective_latency_s : t -> float
(** Per-message latency on the simulation scale. *)

val transfer_time : t -> bytes:int -> float
(** Time for one message carrying [bytes]. *)

val transfer_time_scaled : t -> bytes:int -> bw_factor:float -> float
(** Like {!transfer_time} with usable bandwidth scaled by [bw_factor]
    (fault injection's bandwidth collapse).  [bw_factor = 1.0] is
    bit-for-bit identical to {!transfer_time}. *)

val round_trip_time : t -> req:int -> resp:int -> float
(** Request/response exchange (remote I/O, page faults). *)

val round_trip_time_scaled : t -> req:int -> resp:int -> bw_factor:float -> float

val pp : Format.formatter -> t -> unit
