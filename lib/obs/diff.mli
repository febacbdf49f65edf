(** Trace-to-trace regression attribution.

    Two traces (as [(ts, event) list], e.g. from {!Trace_file.load})
    are folded into span trees and aligned by node path — names joined
    root-to-leaf with [";"], the collapsed-stack identity.  The
    wall-clock delta is attributed per aligned node (inclusive, self
    and count changes; nodes present in only one trace align against
    zero) and, cross-cuttingly, per event kind (charged durations:
    transfer+codec for flushes, service time for faults, waited/backoff
    time for timeouts and retries, ...).

    Pure function of the inputs: a trace diffed against itself is
    {!is_zero}, and rendering is byte-identical across reruns. *)

type row = {
  d_path : string;      (** ";"-joined span path from the root *)
  d_count_a : int;
  d_count_b : int;
  d_total_a_s : float;  (** inclusive time in trace A *)
  d_total_b_s : float;
  d_self_a_s : float;   (** self time in trace A *)
  d_self_b_s : float;
}

type kind_row = {
  k_kind : string;
  k_count_a : int;
  k_count_b : int;
  k_time_a_s : float;   (** charged duration summed over trace A *)
  k_time_b_s : float;
}

type report = {
  r_wall_a_s : float;
  r_wall_b_s : float;
  r_rows : row list;       (** descending |self delta|, ties by path *)
  r_kinds : kind_row list; (** descending |time delta|, ties by kind *)
}

val compare_events :
  (float * No_trace.Trace.event) list ->
  (float * No_trace.Trace.event) list ->
  report
(** [compare_events a b] attributes [b]'s cost change relative to [a]. *)

val wall_delta_s : report -> float
(** [r_wall_b_s -. r_wall_a_s]. *)

val is_zero : report -> bool
(** No count or time differs anywhere (self-diff invariant). *)

val top : ?n:int -> report -> row list
(** First [n] (default 10) node rows. *)

val render : ?top_n:int -> report -> string
(** Human-readable tables: wall delta, top nodes, event kinds. *)

val to_json : ?top_n:int -> report -> string
(** Deterministic JSON document (nodes truncated to [top_n], kinds
    complete; non-finite floats as [null]); consumed by
    scripts/bench_guard.py --explain. *)
