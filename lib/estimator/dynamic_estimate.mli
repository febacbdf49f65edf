(** The dynamic performance estimator (paper §3.1/§4).

    "The Native Offloader runtime dynamically makes offloading
    decisions for the targets at run-time through dynamic performance
    estimation with run-time values [...] so the Native Offloader
    runtime can avoid offloading under unfavorable situation such as
    slow network connection."

    Keeps each target's profile-seeded mobile time and the current
    bandwidth belief; decides by Equation 1 with the memory footprint
    observed at the call. *)

type t

type estimate = {
  gain_s : float;  (** Equation 1's Tg under the current beliefs *)
  local_s : float;
      (** the Tm belief the gain was derived from — the local time the
          gain is measured against.  Estimate rows record it so
          post-hoc audits can turn a measured offload cost into a
          measured gain *)
  offload : bool;
      (** the decision: [gain_s > 0], the paper's selection criterion,
          unless forced *)
}

val create : r:float -> bw_bps:float -> t

val seed : t -> name:string -> profile_time_s:float -> unit
(** Install the compiler's profile-derived Tm for a target.  An
    unseeded target's Tm is 0. *)

val set_bandwidth : t -> float -> unit
(** Update the current-bandwidth belief (fed by the predictor). *)

val force : t -> bool option -> unit
(** Ablations: [Some true] always offloads, [Some false] never,
    [None] restores dynamic decisions. *)

val estimate :
  ?r_factor:float -> ?bw_factor:float -> t -> name:string -> mem_bytes:int ->
  estimate
(** The per-invocation estimate, with the footprint observed now: one
    evaluation of Equation 1, which the decision and the trace's
    Estimate row both read.  Forced modes evaluate it too.
    [r_factor]/[bw_factor] (default 1.0 = exclusive server) scale the
    effective speedup and bandwidth for shared-server contention, so a
    client talking to a saturated server declines offloads a dedicated
    server would have won.
    @raise Invalid_argument on a non-positive ratio or bandwidth. *)
