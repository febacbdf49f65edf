(** Runtime fault oracle: the mutable counterpart of a {!Plan.t}.

    The offload session asks the injector, at each blocking exchange,
    what happens to that message at the current simulated instant.
    All stochasticity flows through the plan's seeded RNG, consulted
    only when the plan has a non-zero loss/corruption probability —
    so an empty plan is a strict no-op. *)

type policy = {
  deadline_s : float;  (** per-RPC timeout charged while waiting *)
  max_attempts : int;  (** total send attempts before giving up *)
  backoff_base_s : float;
  backoff_mult : float;
  backoff_max_s : float;
}
(** Bounded exponential backoff: after failed attempt [n] the sender
    waits [min backoff_max_s (backoff_base_s *. backoff_mult^(n-1))]
    before attempt [n+1].  Clock and battery keep charging during
    deadline and backoff waits. *)

val default_policy : policy
(** 0.5 s deadline, 5 attempts, 0.25 s base doubling to a 2 s cap. *)

val backoff_s : policy -> attempt:int -> float
(** Backoff after failed attempt [attempt] (1-based). *)

type verdict =
  | Deliver
  | Outage of float  (** link dark until the given simulated time *)
  | Drop  (** message lost; sender times out *)
  | Corrupt  (** delivered mangled; receiver rejects, sender resends *)
  | Server_down

type t

val create : Plan.t -> t
val plan : t -> Plan.t

val injected : t -> int
(** Number of non-[Deliver] verdicts issued so far. *)

val outage_until : t -> now:float -> float option
(** [Some t_end] if [now] falls inside an outage window. *)

val bw_factor : t -> now:float -> float
(** Bandwidth scale at [now]: 1.0 normally, the collapse factor once
    the collapse time has passed. *)

val server_crashed : t -> now:float -> bool

val clear_crash : t -> unit
(** Mark the plan's crash as spent: a planned crash kills one specific
    machine, so once the task migrates to another pool member the
    oracle stops returning [Server_down].  Idempotent; no effect on
    outage / drop / corruption injection. *)

val judge : t -> now:float -> verdict
(** Fate of one message sent at [now].  Order: server crash, then
    outage, then seeded drop/corruption draw. *)

val verdict_kind : verdict -> string
(** Short label for trace events ("drop", "link-outage", ...). *)
