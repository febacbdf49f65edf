(** Windowed time series derived from the runtime event stream.

    The virtual timeline is cut into fixed-width windows; every event
    is charged to the window its start timestamp falls in (the sinks'
    stamping convention).  Each window carries a full
    {!No_trace.Trace.Metrics} aggregate of just that interval, one
    lossless latency histogram per event kind, and gauges (peak queue
    depth, peak slot occupancy, last sampled bandwidth belief).

    Driven entirely by the simulated clock, so seeded reruns produce
    byte-identical series.  Conservation invariant (locked by tests):
    merging every window's metrics equals the end-of-run metrics of
    the same stream. *)

val default_window_s : float
(** 1.0 simulated second. *)

type window = {
  w_index : int;
  w_start_s : float;
  w_metrics : No_trace.Trace.Metrics.t;
  w_hists : (string * Hist.t) list;
      (** {!No_trace.Trace.latency_names} order *)
  mutable w_peak_queue_depth : int;
  mutable w_peak_occupancy : int;
  mutable w_server_peaks : (int * int) list;
      (** per-server peak admit occupancy within the window, ascending
          server id; servers with no admit in the window are absent *)
  mutable w_bw_bps : float;  (** last sampled belief; NaN when none *)
}

type t

val create : ?window_s:float -> unit -> t
(** Raises [Invalid_argument] unless [window_s > 0]. *)

val window_s : t -> float

val duration_s : t -> float
(** Latest instant any observed event's span reaches (mirror of the
    span tree's wall clock on a session trace). *)

val sink : t -> No_trace.Trace.sink
(** Live attachment: fan this out next to the metrics/ring sinks. *)

val add_exemplar :
  t -> ts:float -> No_trace.Trace.event -> trace_id:string -> unit
(** Attach the latency of a kept event stamped [ts] as a sampled-trace
    exemplar to the window and latency-kind histogram {!sink} charged
    it to — the shape of {!No_trace.Trace.Sampler}'s exemplar hook.
    Out of band: never affects counts, quantiles or conservation.
    Kinds that carry no latency are ignored. *)

val of_events :
  ?window_s:float -> (float * No_trace.Trace.event) list -> t
(** Post-hoc construction from a captured (or reloaded) stream. *)

val windows : t -> window list
(** Dense and chronological from window 0 to the end of the run; gaps
    are (cached) empty windows, so repeated calls return the same
    structure. *)

val totals : t -> No_trace.Trace.Metrics.t
(** All windows merged in chronological order — the conservation
    partner of an independent end-of-run metrics sink. *)

val kind_hist : t -> string -> Hist.t
(** Merge of one {!No_trace.Trace.latency_names} histogram across all
    windows; empty histogram for unknown names. *)
