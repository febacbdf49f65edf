(** Windowed time series derived from the runtime event stream.

    The virtual timeline is cut into fixed-width windows; every event
    is charged to the window its start timestamp falls in (the sinks'
    stamping convention).  Each window carries a
    {!No_trace.Trace.Metrics} fold of just that interval's counters,
    bytes and seconds (power segments excluded: a segment would land
    whole in the window its start falls in), one lossless latency
    histogram per event kind, and gauges (peak queue depth, peak slot
    occupancy, latest sampled bandwidth belief).  Beside the windows, the
    series folds every event into one whole-run record, {!totals}.

    Driven entirely by the simulated clock, so seeded reruns produce
    byte-identical series. *)

val default_window_s : float
(** 1.0 simulated second. *)

type window = {
  w_index : int;
  w_start_s : float;
  w_metrics : No_trace.Trace.Metrics.t;
      (** this interval's fold, power segments excluded (no energy,
          no residency) *)
  w_hists : (string * Hist.t) list;
      (** {!No_trace.Trace.latency_names} order *)
  mutable w_peak_queue_depth : int;
  mutable w_peak_occupancy : int;
  mutable w_server_peaks : (int * int) list;
      (** per-server peak admit occupancy within the window, ascending
          server id; servers with no admit in the window are absent *)
  mutable w_bw_bps : float;
      (** the latest sampled belief in simulated time (of equal
          stamps, the later arrival); NaN when none *)
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
(** The whole run's fold of every event the series observed, in
    arrival order: bit for bit what an independent
    {!No_trace.Trace.Metrics.sink} over the same stream holds.  Live:
    later events keep updating it. *)

val kind_hist : t -> string -> Hist.t
(** Merge of one {!No_trace.Trace.latency_names} histogram across all
    windows; empty histogram for unknown names. *)
