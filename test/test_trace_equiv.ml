(* What can still diverge on the one-door event spine (QCheck): the
   row encoding of every event kind must decode back to the same event
   bit for bit, and a captured stream replayed through fresh sinks
   must rebuild the Metrics and windowed Series the live run folded,
   bitwise — checked on real workload runs under a fault plan. *)

module Trace = No_trace.Trace
module Series = No_obs.Series
module Trace_file = No_obs.Trace_file
module Session = No_runtime.Session
module Chess = No_workloads.Chess
module Fault_plan = No_fault.Plan
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment

(* {1 Stream generator}

   Every constructor appears; floats are bounded and non-negative so
   plans stay physical, but equality below is still bitwise. *)

let gen_event : Trace.event QCheck.Gen.t =
  let open QCheck.Gen in
  let dir = oneofl [ Trace.To_server; Trace.To_mobile ] in
  let name = oneofl [ "alpha"; "beta"; "gamma"; "fir" ] in
  let state =
    oneofl [ "idle"; "computing"; "waiting"; "transmitting"; "receiving" ]
  in
  let small = int_range 0 10_000 in
  let secs = float_range 0.0 8.0 in
  oneof
    [
      (fun st ->
        Trace.Flush
          { direction = dir st; raw_bytes = small st; wire_bytes = small st;
            transfer_s = secs st; codec_s = secs st });
      (fun st -> Trace.Page_fault { page = small st; service_s = secs st });
      (fun st -> Trace.Prefetch { pages = small st; bytes = small st });
      (fun st -> Trace.Fnptr_translate { cost_s = secs st });
      (fun st ->
        Trace.Remote_io
          { io_name = name st; request_bytes = small st;
            response_bytes = small st; cost_s = secs st });
      (fun st -> Trace.Offload_begin { target = name st });
      (fun st ->
        Trace.Offload_end
          { target = name st; dirty_pages = small st; span_s = secs st });
      (fun st -> Trace.Refusal { target = name st });
      (fun st ->
        Trace.Power_state
          { state = state st; mw = float_range 1.0 4000.0 st;
            duration_s = secs st });
      (fun st ->
        Trace.Estimate
          { target = name st; predicted_gain_s = float_range (-2.0) 5.0 st;
            local_s = secs st; decision = bool st });
      (fun st ->
        Trace.Module_load
          { role = name st; functions = small st; globals = small st });
      (fun st -> Trace.Fault_injected { kind = name st; op = name st });
      (fun st ->
        Trace.Rpc_timeout
          { op = name st; attempt = small st; waited_s = secs st });
      (fun st ->
        Trace.Retry { op = name st; attempt = small st; backoff_s = secs st });
      (fun st ->
        Trace.Fallback_local
          { target = name st; reason = name st; recovery_s = secs st });
      (fun st ->
        Trace.Rollback
          { target = name st; pages_restored = small st;
            bytes_discarded = small st });
      (fun st -> Trace.Replay { target = name st; replay_s = secs st });
      (fun st ->
        Trace.Queue
          { target = name st; server = int_range 0 7 st; wait_s = secs st;
            depth = int_range 0 31 st });
      (fun st ->
        Trace.Admit
          { target = name st; server = int_range 0 7 st;
            occupancy = int_range 1 8 st; slot = int_range 0 7 st });
      (fun st ->
        Trace.Reject
          { target = name st; server = int_range 0 7 st;
            queue_depth = int_range 0 31 st });
      (fun st -> Trace.Bw_sample { bps = float_range 1e3 1e9 st });
      (fun st ->
        Trace.Checkpoint
          { target = name st; pages = small st; image_bytes = small st;
            io_cursor = small st; ledger_bytes = small st });
      (fun st ->
        Trace.Migrate_start
          { target = name st; from_server = int_range 0 7 st;
            to_server = int_range 0 7 st; reason = name st;
            transfer_s = secs st });
      (fun st ->
        Trace.Migrate_done
          { target = name st; server = int_range 0 7 st;
            resumed_span_s = secs st });
    ]

(* {1 Bitwise equality}

   Values are marshalled without sharing and compared as bytes, so
   floats compare by their bits (0.0 vs -0.0, NaN gauges, any
   summation-order drift) rather than by [=]. *)

let bits v = Marshal.to_string v [ Marshal.No_sharing ]

(* {1 Row round trip} *)

let prop_round_trip =
  QCheck.Test.make ~name:"row round trip (generated events)" ~count:2000
    (QCheck.make
       ~print:(fun ev -> Trace_file.to_string [ (0.0, ev) ])
       gen_event)
    (fun ev ->
      let row = Trace.Row.create () in
      Trace.Row.of_event row ev;
      bits (Trace.Row.to_event row) = bits ev)

(* {1 Replay = live, on real workloads under a fault plan}

   The live run folds rows straight from the emitters; the capture is
   the ring's boxed copy of the same stream, fed back through
   [Trace.replay]. *)

let chess_compiled =
  lazy
    (Compiler.compile
       ~profile_script:(Chess.script ~depth:3 ~turns:2)
       ~eval_scale:2.0 (Chess.build ()))

let check_replay seed =
  let compiled = Lazy.force chess_compiled in
  let plan =
    match
      Fault_plan.parse
        (Printf.sprintf "seed=%d,drop=0.08,corrupt=0.03,outage=0.02:0.12"
           seed)
    with
    | Ok p -> p
    | Error msg -> Alcotest.failf "fault plan: %s" msg
  in
  let ring = Trace.Ring.create () in
  let metrics = Trace.Metrics.create () in
  let series = Series.create () in
  let config =
    { (Experiment.fast_config ()) with
      Session.trace =
        Trace.fan_out
          [ Trace.Ring.sink ring; Trace.Metrics.sink metrics;
            Series.sink series ];
      Session.faults = Some plan }
  in
  let session =
    Session.create ~config
      ~script:(Chess.script ~depth:4 ~turns:2)
      ~files:[] compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  ignore (Session.run session);
  Alcotest.(check int) "ring kept everything" 0 (Trace.Ring.dropped ring);
  let events = Trace.Ring.events ring in
  let replayed = Trace.Metrics.create () in
  Trace.replay (Trace.Metrics.sink replayed) events;
  Alcotest.(check bool) "metrics replay bitwise" true
    (bits metrics = bits replayed);
  Alcotest.(check bool) "series replay bitwise" true
    (bits (Series.windows series)
    = bits (Series.windows (Series.of_events events)));
  true

let prop_replay =
  QCheck.Test.make ~name:"replay = live (faulted chess runs)" ~count:4
    QCheck.(int_range 1 10_000)
    check_replay

let tests =
  [
    QCheck_alcotest.to_alcotest prop_round_trip;
    QCheck_alcotest.to_alcotest prop_replay;
  ]
