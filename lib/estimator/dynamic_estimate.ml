(* The dynamic performance estimator (paper Sections 3.1 and 4).

   "The Native Offloader runtime dynamically makes offloading
   decisions for the targets at run-time through dynamic performance
   estimation with run-time values. [...] the dynamic performance
   estimation reflects the current network bandwidth, memory usage,
   and target execution time information, so the Native Offloader
   runtime can avoid offloading under unfavorable situation such as
   slow network connection."

   The estimator keeps the profile-seeded mobile time of each target
   and the current bandwidth belief; the memory footprint is observed
   at the decision point.  Figure 6 marks programs whose targets this
   estimator refuses on the slow network with '*'. *)

type t = {
  r : float;
  mutable bw_bps : float;             (* current measured bandwidth *)
  tm_s : (string, float) Hashtbl.t;   (* Tm belief per target *)
  mutable forced : bool option;       (* ablation: Some true = always
                                         offload, Some false = never *)
}

type estimate = { gain_s : float; local_s : float; offload : bool }

let create ~r ~bw_bps =
  { r; bw_bps; tm_s = Hashtbl.create 8; forced = None }

let seed t ~name ~profile_time_s = Hashtbl.replace t.tm_s name profile_time_s
let set_bandwidth t bw_bps = t.bw_bps <- bw_bps
let force t decision = t.forced <- decision

(* Equation 1's Tg with the current beliefs and the memory footprint
   observed *now*.  Forced modes still evaluate it: it is the
   estimator's live prediction, which the trace records either way.

   [r_factor]/[bw_factor] fold server contention into the prediction:
   a shared server at occupancy m delivers only a fraction of its
   nominal speedup and link service rate, so a saturated client sees a
   smaller (possibly negative) gain and declines.  1.0 = exclusive
   server, bit-for-bit the single-client estimate. *)
let estimate ?(r_factor = 1.0) ?(bw_factor = 1.0) t ~name ~mem_bytes =
  let local_s = Option.value ~default:0.0 (Hashtbl.find_opt t.tm_s name) in
  let gain_s =
    (Equation.evaluate
       {
         Equation.tm_s = local_s;
         r = t.r *. r_factor;
         mem_bytes;
         bw_bps = t.bw_bps *. bw_factor;
         invocations = 1;
       })
      .Equation.gain_s
  in
  let offload =
    match t.forced with Some decision -> decision | None -> gain_s > 0.0
  in
  { gain_s; local_s; offload }
