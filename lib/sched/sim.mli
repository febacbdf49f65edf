(** Deterministic discrete-event simulation of N mobile clients
    against a pool of offload servers.

    Each client is a full offloading session starting at a global
    offset; the shared state is the server pool — K independent
    {!Server_load} machines fronted by a {!Pool.policy}.  Clients
    suspend (via an OCaml effect) at every shared-state interaction;
    a binary-heap event queue ({!Event_queue}) resumes them in
    global-time order from a flat driver loop, so native stack depth
    is O(1) in the fleet size.  Same mix + same policy + same seeds →
    byte-identical traces and tables. *)

type client = {
  cl_id : int;                     (** unique, also the tie-breaker *)
  cl_workload : string;            (** registry entry name *)
  cl_start_s : float;              (** global arrival offset *)
  cl_faults : No_fault.Plan.t option;  (** per-client fault schedule *)
}

(** Which console input each session replays: [Profile] (small
    training inputs — cheap, for tests/CI) or [Eval] (the paper's
    evaluation inputs). *)
type scale = Profile | Eval

type config = {
  s_load : Server_load.config;  (** every pool member's config *)
  s_servers : int;              (** pool size K *)
  s_members : Server_load.config array option;
      (** heterogeneous pool: one config per member (mixing slot
          counts, queue depths, speed grades), overriding
          [s_load]/[s_servers] when present *)
  s_policy : Pool.policy;       (** placement policy *)
  s_schedule : Pool.maintenance list;
      (** static down windows — rolling maintenance, planned
          rebalance drains *)
  s_migrate : bool;
      (** sessions checkpoint and migrate off a lost member (the
          default); [false] = always roll back and replay locally *)
  s_link : No_netsim.Link.t;
  s_scale : scale;
  s_record_events : bool;
      (** keep full per-client traces (Ring buffers).  On by default;
          turn off for 10^4-client sweeps — latencies still stream
          into {!val-latency_percentile}, but [cr_events], {!global_events}
          and {!admitted_intervals} come back empty *)
  s_global_sink : No_trace.Trace.sink option;
      (** extra fleet-wide sink fed every client's events re-stamped
          onto the global clock as they stream — SLO series and
          telemetry at any fleet size, without rings *)
  s_sampler : No_trace.Trace.Sampler.t option;
      (** tail-based trace sampler: every client streams into its own
          {!No_trace.Trace.Sampler.client_sink} view (global clock),
          and {!run} flushes trailing in-flight tasks before
          returning, so kept counts are final when it does *)
}

val default_config : config
(** One {!Server_load.default} server, round-robin, no schedule,
    migration on, fast Wi-Fi, profile-scale inputs, events recorded,
    no global sink. *)

val make_clients :
  ?stagger_s:float ->
  ?faults:No_fault.Plan.t ->
  workloads:string list ->
  count:int ->
  unit ->
  client list
(** [count] clients round-robined over [workloads], arriving
    [stagger_s] (default 0.05 s) apart.  A fault plan is re-seeded
    per client (base seed + client id) so every client suffers its
    own deterministic schedule. *)

type client_result = {
  cr_id : int;
  cr_workload : string;
  cr_start_s : float;
  cr_report : No_runtime.Session.report;
  cr_local_s : float;    (** the same program + input run locally *)
  cr_speedup : float;    (** local time / offloaded-session time *)
  cr_end_s : float;      (** global completion instant *)
  cr_events : (float * No_trace.Trace.event) list;
      (** the session's trace, session-local timestamps (add
          [cr_start_s] for global time); [] unless recording *)
}

type result = {
  r_clients : client_result list;
  r_policy : Pool.policy;
  r_makespan_s : float;
  r_throughput : float;            (** clients completed / makespan *)
  r_stats : Server_load.stats;     (** pool totals ({!Pool.total_stats}) *)
  r_server_stats : Server_load.stats array;  (** per member, by id *)
  r_latency : No_obs.Hist.t;       (** streamed offload-span latencies *)
  r_events : int;                  (** trace events emitted fleet-wide *)
}

val run : ?config:config -> client list -> result
(** Simulate the whole fleet to completion.  Raises
    [Invalid_argument] on an empty client list or an unknown
    workload name. *)

val geomean_speedup : result -> float

val global_events : result -> (float * No_trace.Trace.event) list
(** Every client's trace merged onto the global clock ([cr_start_s]
    added to each session-local timestamp), stably sorted by time —
    client order breaks ties, so seeded reruns interleave
    byte-identically.  Empty unless the run recorded events; live
    fleet-wide telemetry streams through [s_global_sink] instead. *)

val flipped_local : result -> int
(** Clients with at least one estimator refusal or queue rejection —
    tasks the contended pool pushed back to the mobile device. *)

val migration_totals : result -> int * int * int * int
(** Fleet-wide [(checkpoints, migrations started, migrations
    completed, local replays)] — how mid-flight losses were
    recovered. *)

type scenario = {
  sc_name : string;
  sc_title : string;      (** one-line description for reports *)
  sc_config : config;
  sc_clients : client list;
}

val scenario_names : string list
(** ["failover"; "maintenance"; "rebalance"]. *)

val scenario : ?policy:Pool.policy -> ?migrate:bool -> string -> scenario
(** Canonical migration scenario by name: ["failover"] (a member
    crashes mid-offload, the task fails over to a healthy sibling),
    ["maintenance"] (rolling drains across the pool), ["rebalance"]
    (the expensive fast member of a heterogeneous pool is drained
    mid-run).  [migrate:false] runs the same situation with the
    rollback + local-replay recovery only, for comparison.  Raises
    [Invalid_argument] on an unknown name. *)

val latency_percentile : result -> p:float -> float
(** Nearest-rank percentile (p in [0,100]) of the streamed offload
    spans via {!No_obs.Hist.quantile}; 0.0 when no offload
    completed. *)

val admitted_intervals : result -> (int * float * float) list
(** Global-time [(server, admit, release)] intervals of admitted
    offloads; at no instant may more intervals of one server overlap
    than that server has slots.  Needs a run with [s_record_events]
    on. *)

val render : ?title:string -> result -> string
(** Deterministic per-client table plus aggregate lines (geomean
    speedup, makespan, throughput, pool totals and policy), a
    per-server stats table, and latency percentiles. *)
