(** Equation 1 of the paper: the offloading performance gain model.

    {[ Tg = (Tm - Ts) - Tc = Tm (1 - 1/R) - 2 (M / BW) Ninvo ]}

    where [Tm] is the mobile execution time of the task, [R] the
    server/mobile performance ratio, [M] the memory the task uses,
    [BW] the network bandwidth and [Ninvo] its invocation count.  Both
    the compile-time target selector and the run-time dynamic
    estimator decide by the sign of [Tg]. *)

type inputs = {
  tm_s : float;          (** mobile execution time, seconds *)
  r : float;             (** server/mobile performance ratio *)
  mem_bytes : int;       (** M: memory the task uses *)
  bw_bps : float;        (** BW: network bandwidth, bits per second *)
  invocations : int;     (** Ninvo *)
}

type breakdown = {
  ideal_gain_s : float;  (** Tm (1 - 1/R) *)
  comm_cost_s : float;   (** 2 (M/BW) Ninvo *)
  gain_s : float;        (** their difference: Tg *)
}

val evaluate : inputs -> breakdown
(** Evaluate Equation 1.  @raise Invalid_argument on a non-positive
    ratio or bandwidth. *)
