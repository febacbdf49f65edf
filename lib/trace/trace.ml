(* The runtime event spine: a typed vocabulary for everything the
   offloading runtime does that costs time, bytes or energy, plus a
   pluggable sink interface.

   The evaluation (Figures 6-8, Table 4) is entirely built from
   runtime accounting.  Instead of scattering mutable counters across
   netsim / power / runtime, every layer emits structured events
   through the session's sink, which folds them into the session's
   ledger (a [Metrics]) and passes them on to the configured trace;
   the report and the aggregate views (the Figure-7 overhead
   breakdown, the Figure-8 power timeline, per-run metrics tables) are
   derived from the stream.

   This library sits below every emitting layer, so it depends on
   nothing but the standard library (and the self-profiler, which sits
   lower still): directions and power states are mirrored here as
   self-contained types/strings rather than imported from netsim/power
   (which would invert the dependency). *)

module Selfprof = No_selfprof.Selfprof

type direction = To_server | To_mobile

let direction_to_string = function
  | To_server -> "to-server"
  | To_mobile -> "to-mobile"

(* The one JSON string escaper: the raw trace files, the Chrome
   exporter and every JSON report write strings through it. *)
let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_json_string buf s;
  Buffer.contents buf

(* The one JSON number printer of the reports: JSON has no infinity or
   NaN, so a non-finite value prints as null. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

(* The one float printer of the text reports: fixed-point below 1e15 in
   magnitude, exponent form at or above it (and for infinities), so a
   huge value takes a bounded width instead of hundreds of digits. *)
let text_float ?(plus = false) ~digits v =
  match (Float.abs v < 1e15, plus) with
  | true, false -> Printf.sprintf "%.*f" digits v
  | true, true -> Printf.sprintf "%+.*f" digits v
  | false, false -> Printf.sprintf "%.*e" digits v
  | false, true -> Printf.sprintf "%+.*e" digits v

(* [b -. a], except that equal values differ by 0 even when they are
   infinite (where the subtraction gives NaN); every other pair,
   NaN operands included, keeps the subtraction's bits. *)
let delta a b =
  let d = b -. a in
  if Float.is_nan d && a = b then 0.0 else d

(* The one representation of an event, from the emitter to every
   analysis: emitters build the constructor, sinks read it as it
   arrives and may keep it, and captures, trace files and the
   analyses hold the same values. *)
type event =
  | Flush of {
      direction : direction;
      raw_bytes : int;            (* batched payload before compression *)
      wire_bytes : int;           (* what actually crossed the link *)
      transfer_s : float;         (* link time charged *)
      codec_s : float;            (* compression + decompression CPU *)
    }
  | Page_fault of { page : int; service_s : float }
  | Prefetch of { pages : int; bytes : int }
  | Fnptr_translate of { cost_s : float }
  | Remote_io of {
      io_name : string;           (* the intercepted builtin, e.g. rf_read *)
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
      predicted_gain_s : float;   (* Equation 1's Tg at this call *)
      local_s : float;            (* the estimator's Tm belief at this call *)
      decision : bool;
    }
  | Module_load of { role : string; functions : int; globals : int }
  | Fault_injected of { kind : string; op : string }
  | Rpc_timeout of { op : string; attempt : int; waited_s : float }
  | Retry of { op : string; attempt : int; backoff_s : float }
  | Fallback_local of { target : string; reason : string; recovery_s : float }
  | Rollback of { target : string; pages_restored : int; bytes_discarded : int }
  | Replay of { target : string; replay_s : float }
  | Queue of { target : string; server : int; wait_s : float; depth : int }
  | Admit of { target : string; server : int; occupancy : int; slot : int }
  | Reject of { target : string; server : int; queue_depth : int }
  | Bw_sample of { bps : float }
      (* the bandwidth predictor's belief, sampled after each physical
         transfer — a gauge for the telemetry layer, not a cost *)
  | Checkpoint of {
      target : string;
      pages : int;                (* dirty pages captured in the image *)
      image_bytes : int;          (* continuation image incl. page payloads *)
      io_cursor : int;            (* remote-I/O ops already delivered *)
      ledger_bytes : int;         (* console bytes already committed *)
    }
  | Migrate_start of {
      target : string;
      from_server : int;
      to_server : int;
      reason : string;            (* crash / maintenance / rebalance … *)
      transfer_s : float;         (* checkpoint shipping time on the link *)
    }
  | Migrate_done of {
      target : string;
      server : int;               (* the member that finished the task *)
      resumed_span_s : float;     (* remote span on the new member *)
    }

(* {1 What an event charges}

   The kinds that carry a latency, in histogram-slot order, with their
   telemetry names (OpenMetrics label values, SLO grammar kinds).  The
   windowed series, the trace sampler and every analysis that charges
   time to an event read these definitions. *)
let latency_names =
  [ "offload-span"; "page-fault"; "flush"; "remote-io"; "fnptr-translate";
    "rpc-timeout"; "retry-backoff"; "replay"; "queue-wait";
    "migrate-transfer" ]

let latency_slot = function
  | Offload_end _ -> 0
  | Page_fault _ -> 1
  | Flush _ -> 2
  | Remote_io _ -> 3
  | Fnptr_translate _ -> 4
  | Rpc_timeout _ -> 5
  | Retry _ -> 6
  | Replay _ -> 7
  | Queue _ -> 8
  | Migrate_start _ -> 9
  | Prefetch _ | Offload_begin _ | Refusal _ | Power_state _ | Estimate _
  | Module_load _ | Fault_injected _ | Fallback_local _ | Rollback _
  | Admit _ | Reject _ | Bw_sample _ | Checkpoint _ | Migrate_done _ -> -1

(* A flush's latency is its transfer plus codec legs; every other
   latency kind carries one duration. *)
let latency = function
  | Flush { transfer_s; codec_s; _ } -> transfer_s +. codec_s
  | Offload_end { span_s = d; _ } | Page_fault { service_s = d; _ }
  | Remote_io { cost_s = d; _ } | Fnptr_translate { cost_s = d }
  | Rpc_timeout { waited_s = d; _ } | Retry { backoff_s = d; _ }
  | Replay { replay_s = d; _ } | Queue { wait_s = d; _ }
  | Migrate_start { transfer_s = d; _ } -> d
  | _ -> Float.nan

(* An offload-end event is stamped at its span's close, so it adds
   nothing here; a power segment adds its duration. *)
let close_s ~ts = function
  | Power_state { duration_s; _ } -> ts +. duration_s
  | Flush { transfer_s; codec_s; _ } -> ts +. transfer_s +. codec_s
  | Page_fault { service_s = d; _ } | Fnptr_translate { cost_s = d }
  | Remote_io { cost_s = d; _ } | Rpc_timeout { waited_s = d; _ }
  | Retry { backoff_s = d; _ } | Replay { replay_s = d; _ }
  | Queue { wait_s = d; _ } | Migrate_start { transfer_s = d; _ } -> ts +. d
  | _ -> ts

(* {1 Sinks}

   Events that carry a time-span are stamped with the *start* of the
   span; the clock value is simulated seconds.  A sink may keep the
   event it is handed: nothing mutates an event after emission. *)
type sink = ts:float -> event -> unit

let null : sink = fun ~ts:_ _ -> ()

(* Physical equality against the unique [null] closure lets emitters
   skip building an event entirely. *)
let is_null (sink : sink) = sink == null

(* Null sinks drop out, so fanning a sink out with [null] costs
   nothing. *)
let fan_out sinks =
  match List.filter (fun s -> not (is_null s)) sinks with
  | [] -> null
  | [ sink ] -> sink
  | sinks -> fun ~ts ev -> List.iter (fun (s : sink) -> s ~ts ev) sinks

let replay (sink : sink) events = List.iter (fun (ts, ev) -> sink ~ts ev) events

let event_name = function
  | Flush { direction; _ } -> "flush:" ^ direction_to_string direction
  | Page_fault _ -> "page-fault"
  | Prefetch _ -> "prefetch"
  | Fnptr_translate _ -> "fnptr-translate"
  | Remote_io { io_name; _ } -> "remote-io:" ^ io_name
  | Offload_begin { target } | Offload_end { target; _ } -> "offload:" ^ target
  | Refusal { target } -> "refusal:" ^ target
  | Power_state { state; _ } -> "power:" ^ state
  | Estimate { target; _ } -> "estimate:" ^ target
  | Module_load { role; _ } -> "module-load:" ^ role
  | Fault_injected { kind; _ } -> "fault:" ^ kind
  | Rpc_timeout _ -> "rpc-timeout"
  | Retry _ -> "retry"
  | Fallback_local { target; _ } -> "fallback:" ^ target
  | Rollback { target; _ } -> "rollback:" ^ target
  | Replay { target; _ } -> "replay:" ^ target
  | Queue { target; _ } -> "queue:" ^ target
  | Admit { target; _ } -> "admit:" ^ target
  | Reject { target; _ } -> "reject:" ^ target
  | Bw_sample _ -> "bw-sample"
  | Checkpoint { target; _ } -> "checkpoint:" ^ target
  | Migrate_start { target; _ } -> "migrate:" ^ target
  | Migrate_done { target; _ } -> "migrate-done:" ^ target

(* {1 The raw-trace codec's slot view}

   The jsonl codec walks one table, [schema], instead of 24 hand-written
   encoders and decoders.  So it reads and writes an event through a
   row of generic slots (four ints, two floats, two strings), one kind
   code per constructor, and [to_event]/[of_event] are the one mapping
   between the constructors and those slots. *)

module Row = struct
  type t = {
    mutable kind : int;               (* index into [schema] *)
    mutable i1 : int;
    mutable i2 : int;
    mutable i3 : int;
    mutable i4 : int;
    f : float array;                  (* 2 slots *)
    mutable s1 : string;
    mutable s2 : string;
  }

  let create () =
    { kind = -1; i1 = 0; i2 = 0; i3 = 0; i4 = 0; f = Array.make 2 0.0;
      s1 = ""; s2 = "" }

  (* Kind codes follow the constructors' order, and so does [schema]. *)
  let to_event (r : t) : event =
    match r.kind with
    | 0 ->
      Flush
        { direction = (if r.i1 = 0 then To_server else To_mobile);
          raw_bytes = r.i2; wire_bytes = r.i3; transfer_s = r.f.(0);
          codec_s = r.f.(1) }
    | 1 -> Page_fault { page = r.i1; service_s = r.f.(0) }
    | 2 -> Prefetch { pages = r.i1; bytes = r.i2 }
    | 3 -> Fnptr_translate { cost_s = r.f.(0) }
    | 4 ->
      Remote_io
        { io_name = r.s1; request_bytes = r.i1; response_bytes = r.i2;
          cost_s = r.f.(0) }
    | 5 -> Offload_begin { target = r.s1 }
    | 6 -> Offload_end { target = r.s1; dirty_pages = r.i1; span_s = r.f.(0) }
    | 7 -> Refusal { target = r.s1 }
    | 8 -> Power_state { state = r.s1; mw = r.f.(0); duration_s = r.f.(1) }
    | 9 ->
      Estimate
        { target = r.s1; predicted_gain_s = r.f.(0); local_s = r.f.(1);
          decision = r.i1 <> 0 }
    | 10 -> Module_load { role = r.s1; functions = r.i1; globals = r.i2 }
    | 11 -> Fault_injected { kind = r.s1; op = r.s2 }
    | 12 -> Rpc_timeout { op = r.s1; attempt = r.i1; waited_s = r.f.(0) }
    | 13 -> Retry { op = r.s1; attempt = r.i1; backoff_s = r.f.(0) }
    | 14 ->
      Fallback_local { target = r.s1; reason = r.s2; recovery_s = r.f.(0) }
    | 15 ->
      Rollback { target = r.s1; pages_restored = r.i1; bytes_discarded = r.i2 }
    | 16 -> Replay { target = r.s1; replay_s = r.f.(0) }
    | 17 ->
      Queue { target = r.s1; server = r.i1; wait_s = r.f.(0); depth = r.i2 }
    | 18 ->
      Admit { target = r.s1; server = r.i1; occupancy = r.i2; slot = r.i3 }
    | 19 -> Reject { target = r.s1; server = r.i1; queue_depth = r.i2 }
    | 20 -> Bw_sample { bps = r.f.(0) }
    | 21 ->
      Checkpoint
        { target = r.s1; pages = r.i1; image_bytes = r.i2; io_cursor = r.i3;
          ledger_bytes = r.i4 }
    | 22 ->
      Migrate_start
        { target = r.s1; from_server = r.i1; to_server = r.i2; reason = r.s2;
          transfer_s = r.f.(0) }
    | 23 ->
      Migrate_done { target = r.s1; server = r.i1; resumed_span_s = r.f.(0) }
    | _ -> invalid_arg "Trace.Row.to_event: uninitialized row"

  (* The exact inverse of [to_event]: it writes the slots [schema]
     names for the event's kind, and no other. *)
  let of_event (r : t) (ev : event) : unit =
    match ev with
    | Flush { direction; raw_bytes; wire_bytes; transfer_s; codec_s } ->
      r.kind <- 0;
      r.i1 <- (match direction with To_server -> 0 | To_mobile -> 1);
      r.i2 <- raw_bytes;
      r.i3 <- wire_bytes;
      r.f.(0) <- transfer_s;
      r.f.(1) <- codec_s
    | Page_fault { page; service_s } ->
      r.kind <- 1;
      r.i1 <- page;
      r.f.(0) <- service_s
    | Prefetch { pages; bytes } ->
      r.kind <- 2;
      r.i1 <- pages;
      r.i2 <- bytes
    | Fnptr_translate { cost_s } ->
      r.kind <- 3;
      r.f.(0) <- cost_s
    | Remote_io { io_name; request_bytes; response_bytes; cost_s } ->
      r.kind <- 4;
      r.s1 <- io_name;
      r.i1 <- request_bytes;
      r.i2 <- response_bytes;
      r.f.(0) <- cost_s
    | Offload_begin { target } ->
      r.kind <- 5;
      r.s1 <- target
    | Offload_end { target; dirty_pages; span_s } ->
      r.kind <- 6;
      r.s1 <- target;
      r.i1 <- dirty_pages;
      r.f.(0) <- span_s
    | Refusal { target } ->
      r.kind <- 7;
      r.s1 <- target
    | Power_state { state; mw; duration_s } ->
      r.kind <- 8;
      r.s1 <- state;
      r.f.(0) <- mw;
      r.f.(1) <- duration_s
    | Estimate { target; predicted_gain_s; local_s; decision } ->
      r.kind <- 9;
      r.s1 <- target;
      r.f.(0) <- predicted_gain_s;
      r.f.(1) <- local_s;
      r.i1 <- (if decision then 1 else 0)
    | Module_load { role; functions; globals } ->
      r.kind <- 10;
      r.s1 <- role;
      r.i1 <- functions;
      r.i2 <- globals
    | Fault_injected { kind; op } ->
      r.kind <- 11;
      r.s1 <- kind;
      r.s2 <- op
    | Rpc_timeout { op; attempt; waited_s } ->
      r.kind <- 12;
      r.s1 <- op;
      r.i1 <- attempt;
      r.f.(0) <- waited_s
    | Retry { op; attempt; backoff_s } ->
      r.kind <- 13;
      r.s1 <- op;
      r.i1 <- attempt;
      r.f.(0) <- backoff_s
    | Fallback_local { target; reason; recovery_s } ->
      r.kind <- 14;
      r.s1 <- target;
      r.s2 <- reason;
      r.f.(0) <- recovery_s
    | Rollback { target; pages_restored; bytes_discarded } ->
      r.kind <- 15;
      r.s1 <- target;
      r.i1 <- pages_restored;
      r.i2 <- bytes_discarded
    | Replay { target; replay_s } ->
      r.kind <- 16;
      r.s1 <- target;
      r.f.(0) <- replay_s
    | Queue { target; server; wait_s; depth } ->
      r.kind <- 17;
      r.s1 <- target;
      r.i1 <- server;
      r.i2 <- depth;
      r.f.(0) <- wait_s
    | Admit { target; server; occupancy; slot } ->
      r.kind <- 18;
      r.s1 <- target;
      r.i1 <- server;
      r.i2 <- occupancy;
      r.i3 <- slot
    | Reject { target; server; queue_depth } ->
      r.kind <- 19;
      r.s1 <- target;
      r.i1 <- server;
      r.i2 <- queue_depth
    | Bw_sample { bps } ->
      r.kind <- 20;
      r.f.(0) <- bps
    | Checkpoint { target; pages; image_bytes; io_cursor; ledger_bytes } ->
      r.kind <- 21;
      r.s1 <- target;
      r.i1 <- pages;
      r.i2 <- image_bytes;
      r.i3 <- io_cursor;
      r.i4 <- ledger_bytes
    | Migrate_start { target; from_server; to_server; reason; transfer_s } ->
      r.kind <- 22;
      r.s1 <- target;
      r.s2 <- reason;
      r.i1 <- from_server;
      r.i2 <- to_server;
      r.f.(0) <- transfer_s
    | Migrate_done { target; server; resumed_span_s } ->
      r.kind <- 23;
      r.s1 <- target;
      r.i1 <- server;
      r.f.(0) <- resumed_span_s

  (* {2 The wire schema}

     Each kind's raw-trace form, written once: its wire name and, in
     wire order, each field's name, type and the slot [of_event]
     fills.  The jsonl encoder and decoder are walks over this table,
     so a new field is its constructor field, its slot in the two
     mappings above and one entry here. *)

  type ty = Int | Float | String | Bool | Direction

  (* [slot] numbers a slot of the field's type: 1-4 for [i1]-[i4] (Int,
     Bool and Direction), 0-1 for [f], 1-2 for [s1]-[s2]. *)
  type field = { name : string; ty : ty; slot : int }
  type kind_schema = { wire : string; fields : field array }

  (* A Direction slot holds its direction's index in this array. *)
  let directions = [| To_server; To_mobile |]

  (* Indexed by kind code. *)
  let schema =
    let kind wire fields = { wire; fields = Array.of_list fields } in
    let i name slot = { name; ty = Int; slot }
    and fl name slot = { name; ty = Float; slot }
    and s name slot = { name; ty = String; slot } in
    [|
      kind "flush"
        [ { name = "direction"; ty = Direction; slot = 1 }; i "raw_bytes" 2;
          i "wire_bytes" 3; fl "transfer_s" 0; fl "codec_s" 1 ];
      kind "page-fault" [ i "page" 1; fl "service_s" 0 ];
      kind "prefetch" [ i "pages" 1; i "bytes" 2 ];
      kind "fnptr-translate" [ fl "cost_s" 0 ];
      kind "remote-io"
        [ s "io_name" 1; i "request_bytes" 1; i "response_bytes" 2;
          fl "cost_s" 0 ];
      kind "offload-begin" [ s "target" 1 ];
      kind "offload-end" [ s "target" 1; i "dirty_pages" 1; fl "span_s" 0 ];
      kind "refusal" [ s "target" 1 ];
      kind "power-state" [ s "state" 1; fl "mw" 0; fl "duration_s" 1 ];
      kind "estimate"
        [ s "target" 1; fl "predicted_gain_s" 0; fl "local_s" 1;
          { name = "decision"; ty = Bool; slot = 1 } ];
      kind "module-load" [ s "role" 1; i "functions" 1; i "globals" 2 ];
      kind "fault-injected" [ s "fault" 1; s "op" 2 ];
      kind "rpc-timeout" [ s "op" 1; i "attempt" 1; fl "waited_s" 0 ];
      kind "retry" [ s "op" 1; i "attempt" 1; fl "backoff_s" 0 ];
      kind "fallback-local" [ s "target" 1; s "reason" 2; fl "recovery_s" 0 ];
      kind "rollback"
        [ s "target" 1; i "pages_restored" 1; i "bytes_discarded" 2 ];
      kind "replay" [ s "target" 1; fl "replay_s" 0 ];
      kind "queue" [ s "target" 1; i "server" 1; fl "wait_s" 0; i "depth" 2 ];
      kind "admit"
        [ s "target" 1; i "server" 1; i "occupancy" 2; i "slot" 3 ];
      kind "reject" [ s "target" 1; i "server" 1; i "queue_depth" 2 ];
      kind "bw-sample" [ fl "bps" 0 ];
      kind "checkpoint"
        [ s "target" 1; i "pages" 1; i "image_bytes" 2; i "io_cursor" 3;
          i "ledger_bytes" 4 ];
      kind "migrate-start"
        [ s "target" 1; i "from_server" 1; i "to_server" 2; s "reason" 2;
          fl "transfer_s" 0 ];
      kind "migrate-done" [ s "target" 1; i "server" 1; fl "resumed_span_s" 0 ];
    |]

  let int_slot r = function 1 -> r.i1 | 2 -> r.i2 | 3 -> r.i3 | _ -> r.i4

  let set_int_slot r slot v =
    match slot with
    | 1 -> r.i1 <- v
    | 2 -> r.i2 <- v
    | 3 -> r.i3 <- v
    | _ -> r.i4 <- v

  let string_slot r slot = if slot = 1 then r.s1 else r.s2
  let set_string_slot r slot v = if slot = 1 then r.s1 <- v else r.s2 <- v
end

(* {1 Aggregating metrics sink}

   The fold of a run's events into its totals, and the only thing
   that builds one.  Each session folds every event it emits into one
   of these, its ledger, and reads its report off it; the Figure 7 and
   Figure 8 views read the same record, and a windowed series keeps
   one for its whole run. *)

module Metrics = struct
  type t = {
    mutable flushes_to_server : int;
    mutable flushes_to_mobile : int;
    mutable raw_to_server : int;
    mutable raw_to_mobile : int;
    mutable wire_to_server : int;
    mutable wire_to_mobile : int;
    mutable transfer_s : float;
    mutable codec_s : float;
    (* Charged communication time: transfer + codec per flush, service
       per page fault, added in emission order as the session charges
       them.  Summing the three parts afterwards would differ in the
       last bits. *)
    mutable comm_s : float;
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
    mutable migrations : int;           (* migration attempts started *)
    mutable migrations_done : int;      (* resumed to completion remotely *)
    mutable migrate_transfer_s : float; (* checkpoint shipping time *)
    mutable migrate_resume_s : float;   (* remote span after resuming *)
    mutable energy_mj : float;
    (* (start, mw, duration, state), reversed: the Figure-8 timeline
       and the per-state residencies are read off it. *)
    mutable power_rev : (float * float * float * string) list;
  }

  let create () =
    {
      flushes_to_server = 0;
      flushes_to_mobile = 0;
      raw_to_server = 0;
      raw_to_mobile = 0;
      wire_to_server = 0;
      wire_to_mobile = 0;
      transfer_s = 0.0;
      codec_s = 0.0;
      comm_s = 0.0;
      fault_count = 0;
      fault_s = 0.0;
      prefetched_pages = 0;
      prefetched_bytes = 0;
      fnptr_count = 0;
      fnptr_s = 0.0;
      remote_io_count = 0;
      remote_io_s = 0.0;
      offloads = 0;
      offload_span_s = 0.0;
      refusals = 0;
      estimates = 0;
      faults_injected = 0;
      rpc_timeouts = 0;
      retries = 0;
      retry_wait_s = 0.0;
      fallbacks = 0;
      rollbacks = 0;
      recovery_s = 0.0;
      replays = 0;
      replay_s = 0.0;
      queued = 0;
      queue_wait_s = 0.0;
      admits = 0;
      rejects = 0;
      checkpoints = 0;
      checkpoint_pages = 0;
      checkpoint_bytes = 0;
      migrations = 0;
      migrations_done = 0;
      migrate_transfer_s = 0.0;
      migrate_resume_s = 0.0;
      energy_mj = 0.0;
      power_rev = [];
    }

  (* The one fold: every event updates the record in place, so it is
     current at every read.  Float sums are mutable fields of a mixed
     record and box on each write — at most two per event. *)
  let observe t ~ts ev =
    Selfprof.enter Sink_emit;
    (match ev with
    | Flush { direction; raw_bytes; wire_bytes; transfer_s; codec_s } ->
      (match direction with
      | To_server ->
        t.flushes_to_server <- t.flushes_to_server + 1;
        t.raw_to_server <- t.raw_to_server + raw_bytes;
        t.wire_to_server <- t.wire_to_server + wire_bytes
      | To_mobile ->
        t.flushes_to_mobile <- t.flushes_to_mobile + 1;
        t.raw_to_mobile <- t.raw_to_mobile + raw_bytes;
        t.wire_to_mobile <- t.wire_to_mobile + wire_bytes);
      t.transfer_s <- t.transfer_s +. transfer_s;
      t.codec_s <- t.codec_s +. codec_s;
      t.comm_s <- t.comm_s +. (transfer_s +. codec_s)
    | Page_fault { service_s; _ } ->
      t.fault_count <- t.fault_count + 1;
      t.fault_s <- t.fault_s +. service_s;
      t.comm_s <- t.comm_s +. service_s
    | Prefetch { pages; bytes } ->
      t.prefetched_pages <- t.prefetched_pages + pages;
      t.prefetched_bytes <- t.prefetched_bytes + bytes
    | Fnptr_translate { cost_s } ->
      t.fnptr_count <- t.fnptr_count + 1;
      t.fnptr_s <- t.fnptr_s +. cost_s
    | Remote_io { cost_s; _ } ->
      t.remote_io_count <- t.remote_io_count + 1;
      t.remote_io_s <- t.remote_io_s +. cost_s
    | Offload_begin _ -> t.offloads <- t.offloads + 1
    | Offload_end { span_s; _ } ->
      t.offload_span_s <- t.offload_span_s +. span_s
    | Refusal _ -> t.refusals <- t.refusals + 1
    | Power_state { state; mw; duration_s } ->
      t.energy_mj <- t.energy_mj +. (mw *. duration_s);
      t.power_rev <- (ts, mw, duration_s, state) :: t.power_rev
    | Estimate _ -> t.estimates <- t.estimates + 1
    | Module_load _ | Bw_sample _ -> ()
    | Fault_injected _ -> t.faults_injected <- t.faults_injected + 1
    | Rpc_timeout { waited_s; _ } ->
      t.rpc_timeouts <- t.rpc_timeouts + 1;
      t.retry_wait_s <- t.retry_wait_s +. waited_s
    | Retry { backoff_s; _ } ->
      t.retries <- t.retries + 1;
      t.retry_wait_s <- t.retry_wait_s +. backoff_s
    | Fallback_local { recovery_s; _ } ->
      t.fallbacks <- t.fallbacks + 1;
      t.recovery_s <- t.recovery_s +. recovery_s
    | Rollback _ -> t.rollbacks <- t.rollbacks + 1
    | Replay { replay_s; _ } ->
      t.replays <- t.replays + 1;
      t.replay_s <- t.replay_s +. replay_s
    | Queue { wait_s; _ } ->
      t.queued <- t.queued + 1;
      t.queue_wait_s <- t.queue_wait_s +. wait_s
    | Admit _ -> t.admits <- t.admits + 1
    | Reject _ -> t.rejects <- t.rejects + 1
    | Checkpoint { pages; image_bytes; _ } ->
      t.checkpoints <- t.checkpoints + 1;
      t.checkpoint_pages <- t.checkpoint_pages + pages;
      t.checkpoint_bytes <- t.checkpoint_bytes + image_bytes
    | Migrate_start { transfer_s; _ } ->
      t.migrations <- t.migrations + 1;
      t.migrate_transfer_s <- t.migrate_transfer_s +. transfer_s
    | Migrate_done { resumed_span_s; _ } ->
      t.migrations_done <- t.migrations_done + 1;
      t.migrate_resume_s <- t.migrate_resume_s +. resumed_span_s);
    Selfprof.leave Sink_emit

  let sink : t -> sink = observe

  (* Power segments partition the whole run, so their total duration
     is the run's wall clock. *)
  let total_s t =
    List.fold_left (fun acc (_, _, d, _) -> acc +. d) 0.0 t.power_rev

  let power_segments t = List.rev t.power_rev

  (* Seconds per state, each summed over the segments in segment
     order; ascending state name. *)
  let residency t =
    let add acc (_, _, duration_s, state) =
      let prev = Option.value ~default:0.0 (List.assoc_opt state acc) in
      (state, prev +. duration_s) :: List.remove_assoc state acc
    in
    List.sort compare (List.fold_left add [] (power_segments t))

  let time_in_state t state =
    Option.value ~default:0.0 (List.assoc_opt state (residency t))

  (* (time, mW) at a fixed period from 0 to the last segment's end,
     falling back to [idle_mw] where no segment covers the sample
     point. *)
  let resample_power t ~period_s ~idle_mw =
    let segs = power_segments t in
    match t.power_rev with
    | [] -> []
    | (last_ts, _, last_dur, _) :: _ ->
      let horizon = last_ts +. last_dur in
      let n = int_of_float (ceil (horizon /. period_s)) in
      List.init (n + 1) (fun i ->
          let time = float_of_int i *. period_s in
          let mw =
            match
              List.find_opt
                (fun (ts, _, dur, _) -> ts <= time && time < ts +. dur)
                segs
            with
            | Some (_, mw, _, _) -> mw
            | None -> idle_mw
          in
          (time, mw))

  (* Label/value pairs for rendering a per-run metrics table. *)
  let to_rows t : (string * string) list =
    [
      ("offloads", string_of_int t.offloads);
      ("refusals", string_of_int t.refusals);
      ("estimates", string_of_int t.estimates);
      ("offload span (s)", Printf.sprintf "%.4f" t.offload_span_s);
      ("communication (s)", Printf.sprintf "%.4f" t.comm_s);
      ("  transfer (s)", Printf.sprintf "%.4f" t.transfer_s);
      ("  codec (s)", Printf.sprintf "%.4f" t.codec_s);
      ("  fault service (s)", Printf.sprintf "%.4f" t.fault_s);
      ("fn-ptr translations", string_of_int t.fnptr_count);
      ("fn-ptr time (s)", Printf.sprintf "%.4f" t.fnptr_s);
      ("remote I/O ops", string_of_int t.remote_io_count);
      ("remote I/O time (s)", Printf.sprintf "%.4f" t.remote_io_s);
      ("page faults", string_of_int t.fault_count);
      ("prefetched pages", string_of_int t.prefetched_pages);
      ("prefetched bytes", string_of_int t.prefetched_bytes);
      ("flushes to server", string_of_int t.flushes_to_server);
      ("flushes to mobile", string_of_int t.flushes_to_mobile);
      ("raw bytes to server", string_of_int t.raw_to_server);
      ("raw bytes to mobile", string_of_int t.raw_to_mobile);
      ("wire bytes to server", string_of_int t.wire_to_server);
      ("wire bytes to mobile", string_of_int t.wire_to_mobile);
      ("faults injected", string_of_int t.faults_injected);
      ("rpc timeouts", string_of_int t.rpc_timeouts);
      ("retries", string_of_int t.retries);
      ("retry wait (s)", Printf.sprintf "%.4f" t.retry_wait_s);
      ("local fallbacks", string_of_int t.fallbacks);
      ("rollbacks", string_of_int t.rollbacks);
      ("recovery time (s)", Printf.sprintf "%.4f" t.recovery_s);
      ("local replays", string_of_int t.replays);
      ("replay time (s)", Printf.sprintf "%.4f" t.replay_s);
      ("server admits", string_of_int t.admits);
      ("server rejects", string_of_int t.rejects);
      ("queued offloads", string_of_int t.queued);
      ("queue wait (s)", Printf.sprintf "%.4f" t.queue_wait_s);
      ("checkpoints", string_of_int t.checkpoints);
      ("checkpoint pages", string_of_int t.checkpoint_pages);
      ("checkpoint bytes", string_of_int t.checkpoint_bytes);
      ("migrations started", string_of_int t.migrations);
      ("migrations completed", string_of_int t.migrations_done);
      ("migrate transfer (s)", Printf.sprintf "%.4f" t.migrate_transfer_s);
      ("migrate resume (s)", Printf.sprintf "%.4f" t.migrate_resume_s);
      ("energy (mJ)", Printf.sprintf "%.2f" t.energy_mj);
      ("total time (s)", Printf.sprintf "%.4f" (total_s t));
    ]
end

(* {1 Ring-buffer sink}

   Bounded capture of the raw stream, oldest events evicted first —
   the input for the Chrome-trace exporter and for tests. *)

module Ring = struct
  type t = {
    capacity : int;
    buf : (float * event) option array;
    mutable next : int;               (* next write slot *)
    mutable stored : int;
    mutable dropped : int;
  }

  let create ?(capacity = 65536) () =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity";
    { capacity; buf = Array.make capacity None; next = 0; stored = 0;
      dropped = 0 }

  let record t ~ts ev =
    Selfprof.enter Sink_emit;
    if t.stored = t.capacity then t.dropped <- t.dropped + 1
    else t.stored <- t.stored + 1;
    t.buf.(t.next) <- Some (ts, ev);
    t.next <- (t.next + 1) mod t.capacity;
    Selfprof.leave Sink_emit

  let sink t : sink = record t

  let length t = t.stored
  let dropped t = t.dropped

  (* Oldest first.  One pass over the stored slots, newest to oldest,
     consing onto the result: O(stored) time and no stack growth, no
     matter how many events were evicted before the call. *)
  let events t : (float * event) list =
    let start = (t.next - t.stored + t.capacity) mod t.capacity in
    let acc = ref [] in
    for i = t.stored - 1 downto 0 do
      match t.buf.((start + i) mod t.capacity) with
      | Some entry -> acc := entry :: !acc
      | None -> assert false
    done;
    !acc
end

(* {1 Tail-based trace sampler}

   Capture-everything observability (rings, raw jsonl) is exactly the
   cost the self-profiler shows dominating fleet runs, so at 10^4+
   clients the spine needs a sampling layer: keep every trace that
   *matters* (faulted, migrated, SLO-violating, top-of-the-latency
   tail) plus a seeded budget of the rest, and hold the rest only
   while its task is in flight.

   Mechanics: each client sink buffers the (timestamp, event) pairs of
   the task currently in flight.  A task runs from its first event to
   its terminal event (offload-end, refusal or reject) plus the
   epilogue that follows it (rollback/replay, power segments, mobile
   flushes); the keep/drop decision falls when the *next* task starts
   (estimate or offload-begin) or at {!flush}.  A kept task keeps its
   buffered events under a stable trace id ("c<client>-t<task>"); a
   dropped task's buffer is simply let go.

   Every decision is a pure function of (stream content, seed), never
   of arrival interleaving: the probabilistic leg is a stateless
   per-(client, task) draw supplied as the [keep] closure, and the
   deterministic legs (fault/migrate flags, SLO threshold, the
   fleet-wide top-latency reservoir) read only the simulated stream,
   which is itself deterministic.  Same seed, same kept set, byte for
   byte. *)

module Sampler = struct
  type reason = Faulted | Migrated | Slo | Reservoir | Budget

  type cstate = {
    c_id : int;
    c_start : float;
    mutable c_buf : (float * event) list;
        (* the in-flight task on the global clock, newest first *)
    mutable c_len : int;
    mutable c_task : int;         (* next task ordinal for this client *)
    mutable c_pending : bool;     (* terminal event seen; close on task start *)
    mutable c_faulted : bool;
    mutable c_migrated : bool;
    mutable c_latency : float;    (* max offload span inside the task *)
  }

  type t = {
    sp_slo_limit : float;
    sp_reservoir : int;
    sp_keep : client:int -> task:int -> bool;
    sp_exemplar : (ts:float -> event -> trace_id:string -> unit) option;
    sp_clients : (int, cstate) Hashtbl.t;
    mutable sp_res : float list;  (* reservoir latencies, ascending *)
    mutable sp_res_n : int;
    mutable sp_tasks : int;
    mutable sp_kept : (string * (float * event) list) list;  (* newest first *)
    mutable sp_kept_n : int;
    mutable sp_rows_seen : int;
    mutable sp_rows_kept : int;
    mutable sp_live_rows : int;   (* buffered right now, fleet-wide *)
    mutable sp_peak_rows : int;
    mutable sp_r_faulted : int;
    mutable sp_r_migrated : int;
    mutable sp_r_slo : int;
    mutable sp_r_reservoir : int;
    mutable sp_r_budget : int;
  }

  let create ?(reservoir = 8) ?(slo_limit_s = infinity) ?exemplar ~keep () =
    if reservoir < 0 then invalid_arg "Trace.Sampler.create: reservoir";
    {
      sp_slo_limit = slo_limit_s;
      sp_reservoir = reservoir;
      sp_keep = keep;
      sp_exemplar = exemplar;
      sp_clients = Hashtbl.create 64;
      sp_res = [];
      sp_res_n = 0;
      sp_tasks = 0;
      sp_kept = [];
      sp_kept_n = 0;
      sp_rows_seen = 0;
      sp_rows_kept = 0;
      sp_live_rows = 0;
      sp_peak_rows = 0;
      sp_r_faulted = 0;
      sp_r_migrated = 0;
      sp_r_slo = 0;
      sp_r_reservoir = 0;
      sp_r_budget = 0;
    }

  (* Online fleet-wide top-K reservoir: admit a completed task's peak
     latency when the reservoir has room or the latency beats its
     current minimum.  Stream order is deterministic, so the admitted
     set is too. *)
  let reservoir_admit t v =
    if t.sp_reservoir = 0 || not (v > 0.0) then false
    else if t.sp_res_n < t.sp_reservoir then begin
      t.sp_res <- List.sort Float.compare (v :: t.sp_res);
      t.sp_res_n <- t.sp_res_n + 1;
      true
    end
    else
      match t.sp_res with
      | smallest :: rest when v > smallest ->
        t.sp_res <- List.sort Float.compare (v :: rest);
        true
      | _ -> false

  (* Close the in-flight task of [c] and decide its fate.  A kept task
     feeds the exemplar hook, newest event first, so aggregate views
     can point back at a trace id that is actually retained. *)
  let close_task t (c : cstate) =
    if c.c_len > 0 then begin
      t.sp_tasks <- t.sp_tasks + 1;
      let reason =
        if c.c_faulted then Some Faulted
        else if c.c_migrated then Some Migrated
        else if c.c_latency >= t.sp_slo_limit then Some Slo
        else if reservoir_admit t c.c_latency then Some Reservoir
        else if t.sp_keep ~client:c.c_id ~task:c.c_task then Some Budget
        else None
      in
      (match reason with
      | None -> ()
      | Some reason ->
        (match reason with
        | Faulted -> t.sp_r_faulted <- t.sp_r_faulted + 1
        | Migrated -> t.sp_r_migrated <- t.sp_r_migrated + 1
        | Slo -> t.sp_r_slo <- t.sp_r_slo + 1
        | Reservoir -> t.sp_r_reservoir <- t.sp_r_reservoir + 1
        | Budget -> t.sp_r_budget <- t.sp_r_budget + 1);
        let trace_id = Printf.sprintf "c%d-t%d" c.c_id c.c_task in
        Option.iter
          (fun hook ->
            List.iter
              (fun (ts, ev) ->
                if latency_slot ev >= 0 then hook ~ts ev ~trace_id)
              c.c_buf)
          t.sp_exemplar;
        t.sp_kept <- (trace_id, List.rev c.c_buf) :: t.sp_kept;
        t.sp_kept_n <- t.sp_kept_n + 1;
        t.sp_rows_kept <- t.sp_rows_kept + c.c_len);
      t.sp_live_rows <- t.sp_live_rows - c.c_len;
      c.c_buf <- [];
      c.c_len <- 0;
      c.c_task <- c.c_task + 1;
      c.c_pending <- false;
      c.c_faulted <- false;
      c.c_migrated <- false;
      c.c_latency <- 0.0
    end

  let observe t (c : cstate) ~ts ev =
    Selfprof.enter Sink_emit;
    t.sp_rows_seen <- t.sp_rows_seen + 1;
    (* A task-starting event first closes the pending task. *)
    (match ev with
    | (Estimate _ | Offload_begin _) when c.c_pending -> close_task t c
    | _ -> ());
    c.c_buf <- (ts, ev) :: c.c_buf;
    c.c_len <- c.c_len + 1;
    t.sp_live_rows <- t.sp_live_rows + 1;
    if t.sp_live_rows > t.sp_peak_rows then t.sp_peak_rows <- t.sp_live_rows;
    (* The fault-recovery machinery marks a task as faulted; a bare
       Replay (the admission-reject path's forced local run) does not —
       rejection under saturation is routine, and a replay that follows
       a real failure always rides with a rollback/fallback marker. *)
    (match ev with
    | Fault_injected _ | Rpc_timeout _ | Retry _ | Fallback_local _
    | Rollback _ ->
      c.c_faulted <- true
    | Checkpoint _ | Migrate_start _ | Migrate_done _ -> c.c_migrated <- true
    | Offload_end { span_s; _ } ->
      if span_s > c.c_latency then c.c_latency <- span_s;
      c.c_pending <- true
    | Refusal _ | Reject _ -> c.c_pending <- true
    | _ -> ());
    Selfprof.leave Sink_emit

  let cstate_of t ~client ~start_s =
    match Hashtbl.find_opt t.sp_clients client with
    | Some c -> c
    | None ->
      let c =
        {
          c_id = client;
          c_start = start_s;
          c_buf = [];
          c_len = 0;
          c_task = 0;
          c_pending = false;
          c_faulted = false;
          c_migrated = false;
          c_latency = 0.0;
        }
      in
      Hashtbl.replace t.sp_clients client c;
      c

  (* The per-client door.  Timestamps are re-stamped onto the global
     clock here ([start_s] added), so kept traces from different
     clients interleave on one timeline. *)
  let client_sink t ~client ~start_s : sink =
    let c = cstate_of t ~client ~start_s in
    fun ~ts ev -> observe t c ~ts:(c.c_start +. ts) ev

  (* A client's session ended: decide its trailing task now, so its
     buffer frees while the fleet is still running — peak resident
     events track *concurrent* sessions, not total clients. *)
  let close_client t ~client =
    match Hashtbl.find_opt t.sp_clients client with
    | Some c -> close_task t c
    | None -> ()

  (* Close every client's in-flight task, ascending client id — the
     end-of-run decision order must not depend on hashtable layout. *)
  let flush t =
    let ids =
      List.sort compare
        (Hashtbl.fold (fun id _ acc -> id :: acc) t.sp_clients [])
    in
    List.iter (fun id -> close_task t (Hashtbl.find t.sp_clients id)) ids

  let tasks t = t.sp_tasks
  let kept t = t.sp_kept_n
  let rows_seen t = t.sp_rows_seen
  let rows_kept t = t.sp_rows_kept
  let buffered_rows_peak t = t.sp_peak_rows
  let kept_traces t = List.rev t.sp_kept
  let kept_ids t = List.rev_map fst t.sp_kept

  let reasons t =
    [
      ("faulted", t.sp_r_faulted);
      ("migrated", t.sp_r_migrated);
      ("slo", t.sp_r_slo);
      ("reservoir", t.sp_r_reservoir);
      ("budget", t.sp_r_budget);
    ]
end

(* {1 Chrome-trace JSON exporter}

   Produces the Trace Event Format consumed by chrome://tracing and
   Perfetto: offload life cycles as B/E duration pairs, transfers and
   service costs as X complete events, decisions as instants, and the
   power draw as a counter track.  Timestamps are microseconds. *)

module Chrome = struct
  let us s = s *. 1e6

  (* Thread layout: 1 = the offload session, 2 = network + service
     costs, 3 = the power counter track. *)
  let session_tid = 1
  let net_tid = 2
  let power_tid = 3

  let record ~name ~ph ~ts ?dur ?tid ?args () =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "{\"name\":%s,\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1"
         (json_string name) ph ts);
    (match tid with
    | Some tid -> Buffer.add_string b (Printf.sprintf ",\"tid\":%d" tid)
    | None -> ());
    (match dur with
    | Some d -> Buffer.add_string b (Printf.sprintf ",\"dur\":%.3f" d)
    | None -> ());
    if ph = "i" then Buffer.add_string b ",\"s\":\"t\"";
    (match args with
    | Some kvs ->
      Buffer.add_string b ",\"args\":{";
      Buffer.add_string b
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) v)
              kvs));
      Buffer.add_char b '}'
    | None -> ());
    Buffer.add_char b '}';
    Buffer.contents b

  (* An X event lasts what its kind charges ([latency]). *)
  let of_event (ts, ev) : string =
    let name = event_name ev in
    let ts = us ts in
    let x ~tid = record ~name ~ph:"X" ~ts ~dur:(us (latency ev)) ~tid in
    match ev with
    | Flush { raw_bytes; wire_bytes; transfer_s; codec_s; _ } ->
      x ~tid:net_tid
        ~args:
          [
            ("raw_bytes", string_of_int raw_bytes);
            ("wire_bytes", string_of_int wire_bytes);
            ("transfer_us", Printf.sprintf "%.3f" (us transfer_s));
            ("codec_us", Printf.sprintf "%.3f" (us codec_s));
          ]
        ()
    | Page_fault { page; _ } ->
      x ~tid:net_tid ~args:[ ("page", string_of_int page) ] ()
    | Prefetch { pages; bytes } ->
      record ~name ~ph:"i" ~ts ~tid:net_tid
        ~args:
          [ ("pages", string_of_int pages); ("bytes", string_of_int bytes) ]
        ()
    | Fnptr_translate _ -> x ~tid:net_tid ()
    | Remote_io { request_bytes; response_bytes; _ } ->
      x ~tid:net_tid
        ~args:
          [
            ("request_bytes", string_of_int request_bytes);
            ("response_bytes", string_of_int response_bytes);
          ]
        ()
    | Offload_begin _ -> record ~name ~ph:"B" ~ts ~tid:session_tid ()
    | Offload_end { dirty_pages; span_s; _ } ->
      record ~name ~ph:"E" ~ts ~tid:session_tid
        ~args:
          [
            ("dirty_pages", string_of_int dirty_pages);
            ("span_us", Printf.sprintf "%.3f" (us span_s));
          ]
        ()
    | Refusal _ -> record ~name ~ph:"i" ~ts ~tid:session_tid ()
    | Power_state { mw; state; _ } ->
      record ~name:"power" ~ph:"C" ~ts ~tid:power_tid
        ~args:
          [ ("mW", Printf.sprintf "%.1f" mw); ("state", json_string state) ]
        ()
    | Estimate { predicted_gain_s; local_s; decision; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [
            ("predicted_gain_s", Printf.sprintf "%.6f" predicted_gain_s);
            ("local_s", Printf.sprintf "%.6f" local_s);
            ("decision", if decision then "true" else "false");
          ]
        ()
    | Module_load { functions; globals; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [
            ("functions", string_of_int functions);
            ("globals", string_of_int globals);
          ]
        ()
    | Fault_injected { op; _ } ->
      record ~name ~ph:"i" ~ts ~tid:net_tid
        ~args:[ ("op", json_string op) ]
        ()
    | Rpc_timeout { op; attempt; _ } | Retry { op; attempt; _ } ->
      x ~tid:net_tid
        ~args:[ ("op", json_string op); ("attempt", string_of_int attempt) ]
        ()
    | Fallback_local { reason; recovery_s; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [
            ("reason", json_string reason);
            ("recovery_us", Printf.sprintf "%.3f" (us recovery_s));
          ]
        ()
    | Rollback { pages_restored; bytes_discarded; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [
            ("pages_restored", string_of_int pages_restored);
            ("bytes_discarded", string_of_int bytes_discarded);
          ]
        ()
    | Replay _ -> x ~tid:session_tid ()
    | Queue { server; depth; _ } ->
      x ~tid:session_tid
        ~args:
          [ ("server", string_of_int server);
            ("depth", string_of_int depth) ]
        ()
    | Admit { server; occupancy; slot; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [ ("server", string_of_int server);
            ("occupancy", string_of_int occupancy);
            ("slot", string_of_int slot) ]
        ()
    | Reject { server; queue_depth; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [ ("server", string_of_int server);
            ("queue_depth", string_of_int queue_depth) ]
        ()
    | Bw_sample { bps } ->
      record ~name:"bandwidth-belief" ~ph:"C" ~ts ~tid:net_tid
        ~args:[ ("bps", Printf.sprintf "%.1f" bps) ]
        ()
    | Checkpoint { pages; image_bytes; io_cursor; ledger_bytes; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [
            ("pages", string_of_int pages);
            ("image_bytes", string_of_int image_bytes);
            ("io_cursor", string_of_int io_cursor);
            ("ledger_bytes", string_of_int ledger_bytes);
          ]
        ()
    | Migrate_start { from_server; to_server; reason; _ } ->
      x ~tid:net_tid
        ~args:
          [
            ("from_server", string_of_int from_server);
            ("to_server", string_of_int to_server);
            ("reason", json_string reason);
          ]
        ()
    | Migrate_done { server; resumed_span_s; _ } ->
      record ~name ~ph:"i" ~ts ~tid:session_tid
        ~args:
          [
            ("server", string_of_int server);
            ("resumed_span_us", Printf.sprintf "%.3f" (us resumed_span_s));
          ]
        ()

  let thread_meta tid label =
    Printf.sprintf
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\
       \"tid\":%d,\"args\":{\"name\":%s}}"
      tid (json_string label)

  let export ?(process = "native-offloader") (events : (float * event) list) :
      string =
    (* The sink receives power segments stamped at segment *start*,
       i.e. behind the live clock; a stable sort restores global
       timestamp order while preserving emission order (and hence B/E
       nesting) among equal stamps. *)
    let events =
      List.stable_sort (fun (a, _) (b, _) -> compare a b) events
    in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"traceEvents\":[";
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,\
          \"args\":{\"name\":%s}}"
         (json_string process));
    List.iter
      (fun (tid, label) ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (thread_meta tid label))
      [ (session_tid, "offload session"); (net_tid, "network");
        (power_tid, "power") ];
    List.iter
      (fun entry ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (of_event entry))
      events;
    Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
    Buffer.contents buf
end
