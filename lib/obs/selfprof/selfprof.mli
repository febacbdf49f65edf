(** Simulator self-profiler: zone-based cost accounting for the
    simulator's own inner loops.

    [lib/profiler] profiles the *workload* (the paper's hot-function
    profiling); this module turns the same discipline inward.  Hot
    paths bracket themselves in a zone from a fixed vocabulary; the
    profiler accumulates per-zone call counts, self CPU time and
    GC-derived allocation (minor-heap words), attributing nested-zone
    costs to the innermost zone like a classic tracing profiler.

    The profiler is off by default and must cost ~nothing when off:
    [enter]/[leave] are one mutable-bool load and a branch.  When on,
    each crossing reads [Sys.time] and [Gc.minor_words] — both bound
    to their unboxed [@@noalloc] externals — and writes unboxed float
    array slots, so the probes themselves allocate nothing and the
    allocation deltas they record are the instrumented code's own.

    State is global (the simulator is single-domain); [reset] between
    measured regions.  Enabling or disabling never perturbs simulated
    results — the zones wrap host-side bookkeeping only, and the
    determinism test locks simulation output byte-identical either
    way. *)

(** The fixed zone vocabulary.  Adding a zone = one constructor, one
    name, one [enter]/[leave] pair at the instrumented site (see
    DESIGN.md §15). *)
type zone =
  | Eq_push  (** event-queue push (heap insert) *)
  | Eq_pop  (** event-queue pop (heap extract) *)
  | Page_fault  (** copy-on-demand page-fault service *)
  | Compress  (** LZ77 compression of a flush payload *)
  | Decompress  (** LZ77 decompression *)
  | Sink_emit  (** trace sink emission (metrics / ring / series) *)
  | Hist_record  (** histogram record (Hist.add) *)
  | Hist_merge  (** histogram merge (Hist.merge_into) *)
  | Pool_route  (** pool routing: placement + admission bookkeeping *)
  | Checkpoint  (** resumable-image capture *)

val zones : zone list
(** Every zone, in fixed report order. *)

val zone_name : zone -> string
(** Stable kebab-case label, used by reports and OpenMetrics. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all counters (and the zone stack); does not change
    enabled/disabled. *)

val enter : zone -> unit
val leave : zone -> unit
(** Bracket a zone.  Zones may nest (a series sink records into a
    histogram: hist-record nests inside sink-emit); elapsed time and
    words are attributed to the innermost open zone.  [leave] is
    unwind-tolerant: if an exception skipped inner [leave]s, it pops
    the abandoned frames and counts them in [unwound]. *)

type row = {
  r_zone : string;
  r_calls : int;
  r_self_s : float;  (** CPU seconds attributed to this zone alone *)
  r_self_words : float;  (** minor-heap words allocated in this zone *)
}

val rows : unit -> row list
(** One row per zone in fixed vocabulary order, including zero rows. *)

val unwound : unit -> int
(** Zone frames discarded by exceptional unwinds — nonzero means some
    self-time was attributed to an enclosing zone. *)

val report : unit -> string
(** Deterministic text report: the full zone table in vocabulary
    order, then the top 3 zones by self-time and by words/call.
    Layout is fixed; only the measured numbers vary. *)

val allocated_words : unit -> float
(** Whole-process allocation odometer from [Gc.quick_stat]:
    minor + major - promoted words.  Deltas of this around a measured
    region give total (minor+major) words — the allocs/event headline
    of the micro-bench lane. *)
