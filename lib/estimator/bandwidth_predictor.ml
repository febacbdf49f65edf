(* Bandwidth prediction from observed transfers.

   The paper's related work (Section 6) points at Wolski et al. and
   NWSLite: "bandwidth-aware performance prediction to count network
   costs.  With these prediction algorithms, the Native Offloader
   compiler and runtime can predict the performance more precisely."
   This is that extension: the communication manager reports every
   physical transfer (bytes, elapsed seconds); an exponentially
   weighted moving average over the observed throughput feeds the
   dynamic estimator, so a link that degrades mid-run flips later
   offload decisions even though the configured nominal bandwidth
   never changes. *)

type t = {
  mutable estimate_bps : float; (* current belief *)
  mutable samples : int;
}

let alpha = 0.35               (* EWMA weight per 64 KiB observed *)
let min_sample_bytes = 2048    (* ignore tiny control messages *)

let create ~initial_bps =
  if initial_bps <= 0.0 then
    invalid_arg "Bandwidth_predictor.create: non-positive initial";
  { estimate_bps = initial_bps; samples = 0 }

(* Report one physical transfer.  The sample weight grows with the
   transfer size: a hundred-kilobyte batch measures the link far more
   reliably than one small message, so it should move the belief
   correspondingly further (one EWMA step per 64 KiB observed). *)
let observe t ~bytes ~seconds =
  if bytes >= min_sample_bytes && seconds > 0.0 then begin
    let observed_bps = float_of_int bytes *. 8.0 /. seconds in
    let steps = Float.max 1.0 (float_of_int bytes /. 65536.0) in
    let keep = Float.pow (1.0 -. alpha) steps in
    t.estimate_bps <-
      ((1.0 -. keep) *. observed_bps) +. (keep *. t.estimate_bps);
    t.samples <- t.samples + 1
  end

let predict_bps t = t.estimate_bps
let sample_count t = t.samples
