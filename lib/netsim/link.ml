(* Wireless link model.

   The paper evaluates two environments: 802.11n ("slow", max
   144 Mbps) and 802.11ac ("fast", max 844 Mbps).  Real links never
   reach nominal bandwidth; we apply a MAC-efficiency factor and add a
   fixed per-message latency (association, ACKs) — this is what makes
   message *batching* worthwhile (Section 4). *)

type t = {
  name : string;
  nominal_bps : float;
  efficiency : float;      (* fraction of nominal actually achieved *)
  latency_s : float;       (* one-way, per message *)
  fast_radio : bool;       (* the 802.11ac radio, whose remote-I/O
                              service draws more (Section 5.2) *)
}

(* Simulation time scales for the network, companions of
   {!No_arch.Arch.sim_cpu_scale}: our workloads carry both fewer
   instructions and proportionally smaller working sets than SPEC, so
   the link slows by a smaller factor than the CPUs.  Bandwidth and
   latency scale separately — bandwidth is calibrated so the Table 4
   traffic-to-computation ratios land on the same side of the
   Equation 1 offload/refuse boundary as in the paper (164.gzip's
   word-rate kernel refuses the slow network, 458.sjeng's search does
   not); latency is calibrated so per-operation costs (page faults,
   remote I/O requests) take the overhead shares Figure 7 reports.
   All public parameters below are the real radios'. *)
let sim_bw_scale = 100.0
let sim_latency_scale = 50.0

let effective_bps t = t.nominal_bps *. t.efficiency /. sim_bw_scale

let effective_latency_s t = t.latency_s *. sim_latency_scale

let slow_wifi = {
  name = "802.11n";
  nominal_bps = 144e6;
  efficiency = 0.60;
  latency_s = 2.5e-3;
  fast_radio = false;
}

(* Latency barely improves from n to ac: RTT is dominated by MAC
   contention and distance, not PHY rate.  This is why remote-I/O-
   bound programs (300.twolf, 445.gobmk) can burn *more* battery on
   the fast network: requests take nearly as long while the ac radio
   draws more power (Section 5.2, Figure 8(b)/(c)). *)
let fast_wifi = {
  name = "802.11ac";
  nominal_bps = 844e6;
  efficiency = 0.65;
  latency_s = 2.2e-3;
  fast_radio = true;
}

(* A link so slow that dynamic estimation should always refuse to
   offload — used by tests and the adaptive-network example. *)
let congested = {
  name = "congested";
  nominal_bps = 2e6;
  efficiency = 0.5;
  latency_s = 30e-3;
  fast_radio = false;
}

let all = [ slow_wifi; fast_wifi; congested ]

let by_name name = List.find_opt (fun l -> String.equal l.name name) all

(* Time for one message of [bytes] payload, with the usable bandwidth
   scaled by [bw_factor] (fault injection models a collapsed radio by
   passing a factor < 1; factor 1.0 is exact — multiplying by 1.0 is
   the identity in IEEE arithmetic, so the unfaulted path stays
   bit-for-bit unchanged). *)
let transfer_time_scaled t ~bytes ~bw_factor =
  effective_latency_s t
  +. (float_of_int bytes *. 8.0 /. (effective_bps t *. bw_factor))

let transfer_time t ~bytes = transfer_time_scaled t ~bytes ~bw_factor:1.0

(* Time for a round trip carrying [req] bytes out and [resp] bytes
   back (remote I/O requests, Section 3.4). *)
let round_trip_time_scaled t ~req ~resp ~bw_factor =
  transfer_time_scaled t ~bytes:req ~bw_factor
  +. transfer_time_scaled t ~bytes:resp ~bw_factor

let round_trip_time t ~req ~resp =
  round_trip_time_scaled t ~req ~resp ~bw_factor:1.0

let pp ppf t =
  Fmt.pf ppf "%s (%.0f Mbps nominal, %.1f ms latency)" t.name
    (t.nominal_bps /. 1e6) (t.latency_s *. 1e3)
