(** Shared-server admission and contention model.

    One server with [slots] worker slots and a bounded FIFO queue
    serves N mobile clients.  At occupancy [m] (concurrently executing
    offloads) effective speedup and link bandwidth scale by
    [1 / (1 + coeff * (m - 1))]; prices are fixed at admission for the
    offload's whole duration.

    The driver (see {!Sim}) must process admission requests in global
    arrival order and run each admitted offload to its {!release}
    before examining a later request — every wait is then computed
    from an exact release time.  [request] asserts this invariant. *)

type config = {
  slots : int;          (** concurrent worker slots on the server *)
  queue_cap : int;      (** waiting requests tolerated; more → reject *)
  r_factor : float;
      (** member speed relative to the baseline server machine (1.0 =
          the architecture's R); composes multiplicatively with the
          contention scale.  Heterogeneous pools mix values. *)
}

val default : config
(** 2 slots, queue of 2, r_factor 1.0. *)

val alpha : float
(** Compute-contention coefficient, 0.8. *)

val beta : float
(** Link-contention coefficient, 0.5. *)

val r_scale : config -> occupancy:int -> float
(** Effective-speedup scale at an occupancy; [r_factor] at occupancy
    1, strictly decreasing beyond. *)

val bw_scale : occupancy:int -> float
(** Link-bandwidth scale, as {!r_scale} with {!beta} and no
    [r_factor]. *)

type t

val create : ?id:int -> config -> t
(** All slots free.  [id] (default 0) is the pool index stamped into
    every admission this server issues.  Raises [Invalid_argument] on
    [slots < 1] or a negative queue capacity. *)

val id : t -> int
(** The pool index given at {!create}. *)

val config : t -> config

val occupancy : t -> now:float -> int
(** Offloads executing at instant [now]. *)

val load : t -> now:float -> float * float
(** [(r_scale, bw_scale)] an offload starting now would be priced at —
    the current occupancy plus the asker.  Fed to the dynamic
    estimator at decision time. *)

val request :
  t -> now:float -> target:string -> No_runtime.Session.admission
(** Ask for a worker slot at instant [now].  Admits immediately on a
    free slot, FIFO-queues (with the exact wait) while at most
    [queue_cap] requests wait, rejects beyond. *)

val release : t -> now:float -> slot:int -> unit
(** The offload occupying [slot] finished (or was abandoned) at
    [now]. *)

type stats = {
  st_admits : int;
  st_queued : int;
  st_rejects : int;
  st_peak_occupancy : int;
}

val stats : t -> stats
