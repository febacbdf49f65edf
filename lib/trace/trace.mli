(** The runtime event spine: typed events for everything the
    offloading runtime does that costs time, bytes or energy, plus a
    pluggable sink interface.

    Layers emit through a {!sink} threaded via the session
    configuration; aggregate views (the Figure-7 overhead breakdown,
    the Figure-8 power timeline, per-run metrics) are derived from the
    stream.  Sits below every emitting layer, so it depends on nothing
    but the standard library. *)

type direction = To_server | To_mobile

val direction_to_string : direction -> string

val add_json_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal, quotes included: the quote,
    backslash, newline, tab and carriage return get their short escapes,
    other control bytes [\u00XX], every other byte is verbatim.  The
    one escaper of every JSON writer. *)

val json_string : string -> string
(** {!add_json_string} into a fresh string. *)

val json_float : float -> string
(** A JSON number: [%.9g] when finite, [null] otherwise (JSON has no
    infinity or NaN).  The one float printer of the JSON reports. *)

val text_float : ?plus:bool -> digits:int -> float -> string
(** A number for a text report: [%.*f] with [digits] below 1e15 in
    magnitude, [%.*e] at or above it and for infinities, so no cell
    grows to hundreds of digits.  [~plus:true] adds the sign of [%+].
    The one float printer of the text reports' seconds. *)

val delta : float -> float -> float
(** [delta a b] is [b -. a], but 0 when [a = b], infinities included
    (their subtraction is NaN).  Finite operands keep the
    subtraction's bits. *)

type event =
  | Flush of {
      direction : direction;
      raw_bytes : int;        (** batched payload before compression *)
      wire_bytes : int;       (** what actually crossed the link *)
      transfer_s : float;     (** link time charged *)
      codec_s : float;        (** compression + decompression CPU *)
    }
  | Page_fault of { page : int; service_s : float }
  | Prefetch of { pages : int; bytes : int }
  | Fnptr_translate of { cost_s : float }
  | Remote_io of {
      io_name : string;
      request_bytes : int;
      response_bytes : int;
      cost_s : float;
    }
  | Offload_begin of { target : string }
  | Offload_end of { target : string; dirty_pages : int; span_s : float }
  | Refusal of { target : string }
  | Power_state of { state : string; mw : float; duration_s : float }
  | Estimate of {
      target : string;
      predicted_gain_s : float;
      local_s : float;
          (** the estimator's belief of the target's local (mobile)
              execution time at this decision — the Tm the predicted
              gain was derived from *)
      decision : bool;
    }
  | Module_load of { role : string; functions : int; globals : int }
  | Fault_injected of { kind : string; op : string }
      (** an injected fault hit exchange [op]; [kind] is one of
          "link-outage", "drop", "corruption", "server-crash" *)
  | Rpc_timeout of { op : string; attempt : int; waited_s : float }
      (** a blocking exchange waited out its deadline *)
  | Retry of { op : string; attempt : int; backoff_s : float }
      (** backed off and re-attempted an exchange *)
  | Fallback_local of { target : string; reason : string; recovery_s : float }
      (** gave up on the server; the task replays on the mobile host.
          [recovery_s] is the wall time lost to the failed attempt *)
  | Rollback of { target : string; pages_restored : int; bytes_discarded : int }
      (** mobile state restored to the offload-start snapshot;
          [bytes_discarded] is buffered console output thrown away *)
  | Replay of { target : string; replay_s : float }
      (** the retained local body re-ran after a rollback; stamped at
          replay start, [replay_s] is the local re-execution time *)
  | Queue of { target : string; server : int; wait_s : float; depth : int }
      (** every worker slot of server [server] was busy at arrival;
          the request waited [wait_s] in FIFO order behind [depth]
          queued requests.  Stamped at arrival (the wait's start) *)
  | Admit of { target : string; server : int; occupancy : int; slot : int }
      (** server [server] granted worker [slot]; [occupancy] is the
          number of concurrently executing offloads including this
          one — the load the contention scaling was priced at *)
  | Reject of { target : string; server : int; queue_depth : int }
      (** server [server]'s admission queue was full; the task runs
          on the mobile device instead.  Single-server setups stamp
          server 0 throughout *)
  | Bw_sample of { bps : float }
      (** the bandwidth predictor's belief after a physical transfer —
          a sampled gauge for the telemetry layer, carrying no cost *)
  | Checkpoint of {
      target : string;
      pages : int;
      image_bytes : int;
      io_cursor : int;
      ledger_bytes : int;
    }
      (** a resumable task image was captured after a mid-flight server
          loss: [pages] dirty pages plus a continuation image of
          [image_bytes] total; [io_cursor] remote-I/O ops and
          [ledger_bytes] console bytes were already delivered and must
          not be re-issued (the exactly-once ledger) *)
  | Migrate_start of {
      target : string;
      from_server : int;
      to_server : int;
      reason : string;
      transfer_s : float;
    }
      (** the checkpoint ships from the lost member to a healthy one;
          stamped at transfer start, [transfer_s] is the link time
          charged for dirty pages + image *)
  | Migrate_done of { target : string; server : int; resumed_span_s : float }
      (** the migrated task resumed and completed on member [server];
          [resumed_span_s] is the remote span after resumption *)

(** {1 What an event charges} *)

val latency_names : string list
(** The kinds that carry a latency, by telemetry name in histogram
    slot order: offload-span, page-fault, flush, remote-io,
    fnptr-translate, rpc-timeout, retry-backoff, replay, queue-wait,
    migrate-transfer.  The names are the stable telemetry vocabulary
    shared by the windowed histograms, the SLO grammar and the
    OpenMetrics exposition. *)

val latency_slot : event -> int
(** The event's index into {!latency_names}; -1 for kinds that carry
    no latency. *)

val latency : event -> float
(** The time the event charges: a flush's transfer plus codec legs,
    otherwise its one duration (span, service, cost, wait, backoff,
    replay or migration transfer); NaN for kinds without one. *)

val close_s : ts:float -> event -> float
(** The instant the span of an event stamped [ts] closes: [ts] plus a
    power segment's duration, a flush's transfer and codec legs, or
    the span of a page fault, fn-ptr translation, remote I/O, RPC
    timeout, retry backoff, replay, queue wait or migration transfer;
    [ts] for every other kind.  A run ends at the latest close of its
    events. *)

(** {1 Sinks} *)

type sink = ts:float -> event -> unit
(** [ts] is simulated seconds; events that span time are stamped with
    the {e start} of their span.  A sink may keep the event it is
    handed: nothing mutates an event after emission. *)

val null : sink
(** Discards everything. *)

val is_null : sink -> bool
(** Physical check against {!null}, letting an emitter skip building
    an event. *)

val fan_out : sink list -> sink
(** Emit to every sink in order; {!null} sinks are left out. *)

val replay : sink -> (float * event) list -> unit
(** Feed a captured stream to [sink], in order. *)

val event_name : event -> string
(** Short display name, e.g. ["flush:to-server"]. *)

(** The raw-trace codec's slot view of an event: a row of generic
    slots, one kind code per constructor, that {!Row.schema} names
    field by field, so the jsonl encoder and decoder are walks over
    one table. *)
module Row : sig
  type t = {
    mutable kind : int;  (** index into {!schema} *)
    mutable i1 : int;
    mutable i2 : int;
    mutable i3 : int;
    mutable i4 : int;
    f : float array;  (** 2 slots *)
    mutable s1 : string;
    mutable s2 : string;
  }

  val create : unit -> t

  val to_event : t -> event
  (** The event a filled row describes.  Raises [Invalid_argument] on
      an uninitialized row. *)

  val of_event : t -> event -> unit
  (** Fill the row from an event: the exact inverse of {!to_event},
      writing the slots {!schema} names for the event's kind and no
      other. *)

  (** {2 The wire schema}

      Each kind's raw-trace form, written once and walked by the jsonl
      codec. *)

  type ty = Int | Float | String | Bool | Direction

  type field = { name : string; ty : ty; slot : int }
  (** [slot] is 1-4 for [i1]-[i4] (Int; Bool as 0/1; Direction as an
      index into {!directions}), 0-1 for [f], 1-2 for [s1]-[s2]. *)

  type kind_schema = { wire : string; fields : field array }
  (** [fields] in wire order. *)

  val schema : kind_schema array
  (** Indexed by kind code: a kind's wire name and fields, naming
      exactly the slots {!of_event} fills. *)

  val directions : direction array

  val int_slot : t -> int -> int
  val set_int_slot : t -> int -> int -> unit
  val string_slot : t -> int -> string
  val set_string_slot : t -> int -> string -> unit
end

(** The fold of a run's events into its totals, and the only thing
    that builds one.  A session folds every event it emits into one of
    these, its ledger ([Session.ledger]), and fills its report from it;
    a windowed series ([Series.totals]) keeps one for its whole run. *)
module Metrics : sig
  type t = {
    mutable flushes_to_server : int;
    mutable flushes_to_mobile : int;
    mutable raw_to_server : int;
    mutable raw_to_mobile : int;
    mutable wire_to_server : int;
    mutable wire_to_mobile : int;
    mutable transfer_s : float;
    mutable codec_s : float;
    mutable comm_s : float;
        (** charged communication time, in emission order: transfer +
            codec per flush, service per page fault *)
    mutable fault_count : int;
    mutable fault_s : float;
    mutable prefetched_pages : int;
    mutable prefetched_bytes : int;
    mutable fnptr_count : int;
    mutable fnptr_s : float;
    mutable remote_io_count : int;
    mutable remote_io_s : float;
    mutable offloads : int;
    mutable offload_span_s : float;
    mutable refusals : int;
    mutable estimates : int;
    mutable faults_injected : int;
    mutable rpc_timeouts : int;
    mutable retries : int;
    mutable retry_wait_s : float;
    mutable fallbacks : int;
    mutable rollbacks : int;
    mutable recovery_s : float;
    mutable replays : int;
    mutable replay_s : float;
    mutable queued : int;
    mutable queue_wait_s : float;
    mutable admits : int;
    mutable rejects : int;
    mutable checkpoints : int;
    mutable checkpoint_pages : int;
    mutable checkpoint_bytes : int;
    mutable migrations : int;
    mutable migrations_done : int;
    mutable migrate_transfer_s : float;
    mutable migrate_resume_s : float;
    mutable energy_mj : float;
    mutable power_rev : (float * float * float * string) list;
  }

  val create : unit -> t

  val sink : t -> sink
  (** Folds each event into the record in place, so the record is
      current at every read. *)

  val total_s : t -> float
  (** Sum of the power segments, which partition the timeline: the
      run's wall clock up to float rounding. *)

  val power_segments : t -> (float * float * float * string) list
  (** (start, mW, duration, state), chronological. *)

  val residency : t -> (string * float) list
  (** Seconds per power state, ascending state name; each state's
      segments are summed in segment order. *)

  val time_in_state : t -> string -> float
  (** A state's entry in {!residency}; 0 for a state never entered. *)

  val resample_power :
    t -> period_s:float -> idle_mw:float -> (float * float) list
  (** (time, mW) at a fixed period from 0 to the last segment's end;
      [idle_mw] where no segment covers a sample point (the Figure 8
      timeline). *)

  val to_rows : t -> (string * string) list
  (** Label/value pairs for a per-run metrics table. *)
end

(** Bounded capture of the raw stream (oldest evicted first). *)
module Ring : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] defaults to 65536 events; it must be positive.  Once
      full, each new event evicts the oldest one and increments
      {!dropped}, so [dropped t + length t] always equals the total
      number of events emitted into the ring. *)

  val sink : t -> sink
  val length : t -> int

  val dropped : t -> int
  (** Events evicted so far (0 until the ring wraps). *)

  val events : t -> (float * event) list
  (** Oldest first.  O(length) time regardless of how many events were
      evicted before the call. *)
end

(** Tail-based per-task sampler over the event spine.

    One shared sampler receives each client's stream through a
    {!Sampler.client_sink} view, buffers each in-flight task's
    (timestamp, event) pairs, and decides keep/drop at task
    completion: always keep faulted,
    migrated, SLO-violating and top-latency-reservoir tasks, plus a
    seeded budget of the rest via the caller's [keep] closure.  Every
    decision is a pure function of stream content and seed — same
    seed, same kept set — and kept traces are complete (every event
    of the task, including its recovery/power epilogue).  Its [rows]
    counters count events. *)
module Sampler : sig
  type t

  val create :
    ?reservoir:int ->
    ?slo_limit_s:float ->
    ?exemplar:(ts:float -> event -> trace_id:string -> unit) ->
    keep:(client:int -> task:int -> bool) ->
    unit ->
    t
  (** [reservoir] (default 8) bounds the fleet-wide top-latency set
      that is always kept; [slo_limit_s] (default [infinity]) keeps
      any task whose offload span reaches it; [keep] is the seeded
      probabilistic leg — it must be stateless in (client, task), e.g.
      [Rng.task_keep].  [exemplar] fires once per latency-bearing
      event of each {e kept} task, newest first, so exemplars always
      reference retained trace ids. *)

  val client_sink : t -> client:int -> start_s:float -> sink
  (** The per-client door.  [start_s] re-stamps the client's local
      timestamps onto the global clock at buffer time. *)

  val close_client : t -> client:int -> unit
  (** Decide [client]'s trailing in-flight task now — call when its
      session completes, so peak resident events track concurrent
      sessions rather than total clients. *)

  val flush : t -> unit
  (** Close every remaining client's trailing in-flight task
      (deterministic ascending-client order).  Call once at end of
      run; idempotent after {!close_client}. *)

  val tasks : t -> int
  (** Tasks decided so far (kept + dropped). *)

  val kept : t -> int

  val kept_ids : t -> string list
  (** Trace ids ("c<client>-t<task>") of kept tasks, in decision
      order. *)

  val kept_traces : t -> (string * (float * event) list) list
  (** Kept tasks in decision order, each with its complete trace on
      the global clock. *)

  val reasons : t -> (string * int) list
  (** Kept-task counts by decision reason, fixed order:
      faulted, migrated, slo, reservoir, budget. *)

  val rows_seen : t -> int
  val rows_kept : t -> int

  val buffered_rows_peak : t -> int
  (** High-water mark of events resident in task buffers fleet-wide —
      the bounded-memory claim, measured. *)
end

(** Chrome Trace Event Format exporter (chrome://tracing, Perfetto). *)
module Chrome : sig
  val export : ?process:string -> (float * event) list -> string
  (** JSON with offloads as B/E pairs, transfers and service costs as
      X complete events, decisions as instants, power as a counter
      track.  Events are stably sorted by timestamp. *)
end
