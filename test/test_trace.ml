(* Runtime event spine tests: sink plumbing (fan-out, ring buffer,
   zero-cost wrapper), report parity — a metrics sink the caller
   attaches, or one fed a captured stream, reproduces every report
   field exactly — power-trace resampling, and the Chrome-trace
   exporter's well-formedness. *)

module Trace = No_trace.Trace
module Session = No_runtime.Session
module Link = No_netsim.Link
module Battery = No_power.Battery
module Power_model = No_power.Power_model
module Chess = No_workloads.Chess
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment
module Sim = No_sched.Sim

(* {1 Sink plumbing} *)

let recording () =
  let log = ref [] in
  let sink ~ts ev = log := (ts, ev) :: !log in
  (sink, fun () -> List.rev !log)

let some_flush =
  Trace.Flush
    { direction = Trace.To_server; raw_bytes = 100; wire_bytes = 40;
      transfer_s = 0.5; codec_s = 0.1 }

let test_fan_out () =
  let a, got_a = recording () in
  let b, got_b = recording () in
  let s = Trace.fan_out [ a; b ] in
  Trace.replay s [ (1.0, some_flush); (2.0, Trace.Refusal { target = "t" }) ];
  Alcotest.(check int) "a saw both" 2 (List.length (got_a ()));
  Alcotest.(check int) "b saw both" 2 (List.length (got_b ()));
  Alcotest.(check bool) "same order" true (got_a () = got_b ());
  Alcotest.(check bool) "empty fan-out is null" true
    (Trace.is_null (Trace.fan_out []));
  Alcotest.(check bool) "singleton fan-out is the sink itself" true
    (Trace.fan_out [ a ] == a);
  Alcotest.(check bool) "null sinks drop out" true
    (Trace.fan_out [ Trace.null; a; Trace.null ] == a);
  Alcotest.(check bool) "null is null" true (Trace.is_null Trace.null);
  Alcotest.(check bool) "real sink is not null" false (Trace.is_null a)

let test_ring_eviction () =
  let ring = Trace.Ring.create ~capacity:4 () in
  let sink = Trace.Ring.sink ring in
  for i = 1 to 6 do
    Trace.replay sink [ (float_of_int i, Trace.Refusal { target = "t" }) ]
  done;
  Alcotest.(check int) "capped length" 4 (Trace.Ring.length ring);
  Alcotest.(check int) "dropped count" 2 (Trace.Ring.dropped ring);
  Alcotest.(check (list (float 0.0))) "oldest evicted first"
    [ 3.0; 4.0; 5.0; 6.0 ]
    (List.map fst (Trace.Ring.events ring))

(* The ring's accounting invariant: nothing is ever silently lost —
   whatever did not survive in the buffer is counted in [dropped]. *)
let test_ring_wraparound_accounting () =
  let capacity = 16 in
  let ring = Trace.Ring.create ~capacity () in
  let sink = Trace.Ring.sink ring in
  let total = 1000 in
  for i = 1 to total do
    Trace.replay sink [ (float_of_int i, Trace.Refusal { target = "t" }) ];
    Alcotest.(check int)
      (Printf.sprintf "dropped + length = emitted after %d" i)
      i
      (Trace.Ring.dropped ring + Trace.Ring.length ring)
  done;
  Alcotest.(check int) "length capped at capacity" capacity
    (Trace.Ring.length ring);
  Alcotest.(check int) "events matches length" capacity
    (List.length (Trace.Ring.events ring));
  (* The survivors are exactly the newest [capacity] events, oldest
     first. *)
  Alcotest.(check (list (float 0.0))) "survivors are the newest, in order"
    (List.init capacity (fun i -> float_of_int (total - capacity + 1 + i)))
    (List.map fst (Trace.Ring.events ring))

(* {1 Report parity}

   The session fills its report from its ledger.  A [Metrics] that
   folds the same rows elsewhere — attached by the caller through
   [config.trace], or fed a captured stream through [Trace.replay] —
   must reproduce every field exactly: the caller sees every row that
   built the report, and rows survive capture and replay. *)

let close label a b =
  let tol = 1e-6 *. (1.0 +. abs_float a) in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%g vs %g)" label a b)
    true
    (abs_float (a -. b) <= tol)

let same_bits label a b =
  Alcotest.(check int64) label (Int64.bits_of_float a)
    (Int64.bits_of_float b)

let check_report name (r : Session.report) (m : Trace.Metrics.t) =
  let i label = Alcotest.(check int) (name ^ ": " ^ label) in
  let f label = same_bits (name ^ ": " ^ label) in
  (* The report's total is the clock; the power segments partition
     the same timeline, but their sum rounds differently in the last
     bits. *)
  close (name ^ ": total_s") r.Session.rep_total_s (Trace.Metrics.total_s m);
  f "energy_mj" r.Session.rep_energy_mj m.Trace.Metrics.energy_mj;
  f "mobile compute" r.Session.rep_mobile_compute_s
    (r.Session.rep_total_s -. m.Trace.Metrics.offload_span_s);
  f "server span" r.Session.rep_server_span_s m.Trace.Metrics.offload_span_s;
  f "comm_s" r.Session.rep_comm_s m.Trace.Metrics.comm_s;
  f "fnptr_s" r.Session.rep_fnptr_s m.Trace.Metrics.fnptr_s;
  f "remote_io_s" r.Session.rep_remote_io_s m.Trace.Metrics.remote_io_s;
  i "offloads" r.Session.rep_offloads m.Trace.Metrics.offloads;
  i "refusals" r.Session.rep_refusals m.Trace.Metrics.refusals;
  i "faults" r.Session.rep_faults m.Trace.Metrics.fault_count;
  i "prefetched pages" r.Session.rep_prefetched_pages
    m.Trace.Metrics.prefetched_pages;
  i "fnptr translations" r.Session.rep_fnptr_translations
    m.Trace.Metrics.fnptr_count;
  i "remote I/O ops" r.Session.rep_remote_io_ops
    m.Trace.Metrics.remote_io_count;
  i "bytes to server" r.Session.rep_bytes_to_server
    m.Trace.Metrics.raw_to_server;
  i "bytes to mobile" r.Session.rep_bytes_to_mobile
    m.Trace.Metrics.raw_to_mobile;
  i "wire bytes to mobile" r.Session.rep_wire_bytes_to_mobile
    m.Trace.Metrics.wire_to_mobile;
  i "rpc timeouts" r.Session.rep_rpc_timeouts m.Trace.Metrics.rpc_timeouts;
  i "retries" r.Session.rep_retries m.Trace.Metrics.retries;
  i "fallbacks" r.Session.rep_fallbacks m.Trace.Metrics.fallbacks;
  f "recovery_s" r.Session.rep_recovery_s m.Trace.Metrics.recovery_s;
  i "queued" r.Session.rep_queued m.Trace.Metrics.queued;
  f "queue wait" r.Session.rep_queue_wait_s m.Trace.Metrics.queue_wait_s;
  i "rejects" r.Session.rep_rejects m.Trace.Metrics.rejects;
  i "checkpoints" r.Session.rep_checkpoints m.Trace.Metrics.checkpoints;
  i "migrations" r.Session.rep_migrations m.Trace.Metrics.migrations;
  i "migrations done" r.Session.rep_migrations_done
    m.Trace.Metrics.migrations_done;
  f "migrate transfer" r.Session.rep_migrate_transfer_s
    m.Trace.Metrics.migrate_transfer_s;
  f "migrate resume" r.Session.rep_migrate_resume_s
    m.Trace.Metrics.migrate_resume_s

let check_parity name (config : Session.config) ~script ~files compiled =
  let m = Trace.Metrics.create () in
  let config = { config with Session.trace = Trace.Metrics.sink m } in
  let session =
    Session.create ~config ~script ~files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  check_report name (Session.run session) m

let chess_compiled =
  lazy
    (Compiler.compile
       ~profile_script:(Chess.script ~depth:3 ~turns:2)
       ~eval_scale:2.0 (Chess.build ()))

let test_parity_chess () =
  let compiled = Lazy.force chess_compiled in
  let script = Chess.script ~depth:4 ~turns:2 in
  check_parity "chess/fast" (Experiment.fast_config ()) ~script ~files:[]
    compiled;
  check_parity "chess/slow" (Experiment.slow_config ()) ~script ~files:[]
    compiled;
  check_parity "chess/ideal" (Experiment.ideal_config ()) ~script ~files:[]
    compiled

let spec_parity name =
  let entry = Option.get (Registry.by_name name) in
  let compiled = Compiler.compile_entry entry in
  (* Profile-script scale keeps the suite fast; the stream shape is
     identical to the full evaluation run. *)
  check_parity name
    (Experiment.fast_config ())
    ~script:entry.Registry.e_profile_script ~files:entry.Registry.e_files
    compiled

let test_parity_hmmer () = spec_parity "456.hmmer"
let test_parity_gzip () = spec_parity "164.gzip"

(* The fault and migration fields: each failover client's captured
   events, replayed into a fresh [Metrics], reproduce its report. *)
let test_parity_failover_replay () =
  let sc = Sim.scenario ~migrate:true "failover" in
  let clients =
    (Sim.run ~config:sc.Sim.sc_config sc.Sim.sc_clients).Sim.r_clients
  in
  Alcotest.(check bool) "a client migrated" true
    (List.exists
       (fun (c : Sim.client_result) ->
         c.Sim.cr_report.Session.rep_migrations_done > 0)
       clients);
  List.iter
    (fun (c : Sim.client_result) ->
      let m = Trace.Metrics.create () in
      Trace.replay (Trace.Metrics.sink m) c.Sim.cr_events;
      check_report
        (Printf.sprintf "failover client %d" c.Sim.cr_id)
        c.Sim.cr_report m)
    clients

(* An ideal run still moves bytes, but the session's channel wrapper
   zeroes every flush's charged time before it reaches the trace. *)
let test_ideal_flush_cost () =
  let compiled = Lazy.force chess_compiled in
  let ring = Trace.Ring.create () in
  let config =
    { (Experiment.ideal_config ()) with Session.trace = Trace.Ring.sink ring }
  in
  let session =
    Session.create ~config
      ~script:(Chess.script ~depth:4 ~turns:2)
      compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  ignore (Session.run session);
  let flushes =
    List.filter_map
      (function
        | _, Trace.Flush { raw_bytes; wire_bytes; transfer_s; codec_s; _ } ->
          Some (raw_bytes, wire_bytes, transfer_s, codec_s)
        | _ -> None)
      (Trace.Ring.events ring)
  in
  Alcotest.(check bool) "flushes captured" true (flushes <> []);
  List.iter
    (fun (raw, wire, transfer_s, codec_s) ->
      Alcotest.(check (float 0.0)) "transfer zeroed" 0.0 transfer_s;
      Alcotest.(check (float 0.0)) "codec zeroed" 0.0 codec_s;
      Alcotest.(check bool) "raw bytes kept" true (raw > 0);
      Alcotest.(check bool) "wire bytes kept" true (wire > 0))
    flushes

(* {1 Power resampling} *)

let test_resample_matches_battery () =
  let model = Power_model.galaxy_s5 ~fast_radio:true in
  let m = Trace.Metrics.create () in
  let battery = Battery.create ~sink:(Trace.Metrics.sink m) model in
  Battery.spend battery ~from_s:0.0 ~to_s:0.4 Power_model.Computing;
  Battery.spend battery ~from_s:0.4 ~to_s:1.3 Power_model.Transmitting;
  Battery.spend battery ~from_s:1.3 ~to_s:1.3 Power_model.Idle;  (* dropped *)
  Battery.spend battery ~from_s:1.3 ~to_s:2.05 Power_model.Waiting;
  Battery.spend battery ~from_s:2.05 ~to_s:2.5 Power_model.Receiving;
  let idle_mw = Power_model.draw_mw model Power_model.Idle in
  (* Computing 3200 mW, transmitting 3500, waiting 1350, receiving
     2000; idle (300) past the last segment's end. *)
  let expect =
    [ (0.0, 3200.0); (0.25, 3200.0); (0.5, 3500.0); (0.75, 3500.0);
      (1.0, 3500.0); (1.25, 3500.0); (1.5, 1350.0); (1.75, 1350.0);
      (2.0, 1350.0); (2.25, 2000.0); (2.5, 300.0) ]
  in
  let got = Trace.Metrics.resample_power m ~period_s:0.25 ~idle_mw in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "resampled timeline" expect got;
  same_bits "energy parity" (Battery.energy_mj battery)
    m.Trace.Metrics.energy_mj;
  Alcotest.(check int) "zero-length segment emitted no event" 4
    (List.length (Trace.Metrics.power_segments m))

(* {1 Chrome-trace export} *)

(* No JSON library in the test deps; scan the string. *)
let count_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let ts_values json =
  (* Every record carries "ts":<float>; collect them in order. *)
  let key = "\"ts\":" in
  let rec go i acc =
    match String.index_from_opt json i 't' with
    | None -> List.rev acc
    | Some j ->
      if j >= 1 && j + 4 <= String.length json
         && String.sub json (j - 1) 5 = key then begin
        let k = ref (j + 4) in
        let stop = String.length json in
        while
          !k < stop
          && (match json.[!k] with
             | '0' .. '9' | '.' | '-' | 'e' | '+' -> true
             | _ -> false)
        do incr k done;
        let v = float_of_string (String.sub json (j + 4) (!k - j - 4)) in
        go !k (v :: acc)
      end
      else go (j + 1) acc
  in
  go 0 []

let test_chrome_export () =
  let compiled = Lazy.force chess_compiled in
  let ring = Trace.Ring.create ~capacity:(1 lsl 16) () in
  let config =
    { (Experiment.fast_config ()) with
      Session.trace = Trace.Ring.sink ring }
  in
  let session =
    Session.create ~config
      ~script:(Chess.script ~depth:4 ~turns:2)
      compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  ignore (Session.run session);
  Alcotest.(check int) "no events dropped" 0 (Trace.Ring.dropped ring);
  let json = Trace.Chrome.export (Trace.Ring.events ring) in
  Alcotest.(check bool) "traceEvents array" true
    (count_substring json "\"traceEvents\":[" = 1);
  let begins = count_substring json "\"ph\":\"B\"" in
  let ends = count_substring json "\"ph\":\"E\"" in
  Alcotest.(check bool) "at least one offload span" true (begins > 0);
  Alcotest.(check int) "balanced B/E" begins ends;
  Alcotest.(check bool) "has complete events" true
    (count_substring json "\"ph\":\"X\"" > 0);
  Alcotest.(check bool) "has power counters" true
    (count_substring json "\"ph\":\"C\"" > 0);
  let ts = ts_values json in
  Alcotest.(check bool) "timestamps present" true (List.length ts > 4);
  Alcotest.(check bool) "timestamps monotonic" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts));
  Alcotest.(check bool) "timestamps non-negative" true
    (List.for_all (fun t -> t >= 0.0) ts)

(* Every counter the metrics sink tracks must surface in the report
   rows — a full golden of [to_rows] after one event of every kind, so
   adding a tracked-but-unreported field breaks this test. *)
let test_to_rows_covers_all_counters () =
  let m = Trace.Metrics.create () in
  Trace.replay (Trace.Metrics.sink m)
    [
      (0.0, Trace.Module_load { role = "mobile"; functions = 2; globals = 1 });
      ( 0.0,
        Trace.Estimate
          { target = "w"; predicted_gain_s = 1.0; local_s = 2.0;
            decision = true } );
      (0.0, Trace.Offload_begin { target = "w" });
      ( 0.0,
        Trace.Flush
          { direction = Trace.To_server; raw_bytes = 100; wire_bytes = 40;
            transfer_s = 0.5; codec_s = 0.1 } );
      (0.6, Trace.Page_fault { page = 1; service_s = 0.25 });
      (0.9, Trace.Prefetch { pages = 3; bytes = 12288 });
      (0.9, Trace.Fnptr_translate { cost_s = 0.001 });
      ( 0.9,
        Trace.Remote_io
          { io_name = "puts"; request_bytes = 10; response_bytes = 20;
            cost_s = 0.01 } );
      (1.0, Trace.Fault_injected { kind = "drop"; op = "flush" });
      (1.0, Trace.Rpc_timeout { op = "flush"; attempt = 1; waited_s = 0.3 });
      (1.3, Trace.Retry { op = "flush"; attempt = 2; backoff_s = 0.1 });
      ( 1.4,
        Trace.Flush
          { direction = Trace.To_mobile; raw_bytes = 200; wire_bytes = 60;
            transfer_s = 0.2; codec_s = 0.05 } );
      ( 1.65,
        Trace.Rollback { target = "w"; pages_restored = 4; bytes_discarded = 8 } );
      ( 1.65,
        Trace.Fallback_local
          { target = "w"; reason = "server dead"; recovery_s = 0.6 } );
      (1.65, Trace.Offload_end { target = "w"; dirty_pages = 2; span_s = 1.65 });
      (1.65, Trace.Replay { target = "w"; replay_s = 1.35 });
      ( 1.7,
        Trace.Checkpoint
          { target = "w"; pages = 2; image_bytes = 8704; io_cursor = 1;
            ledger_bytes = 12 } );
      ( 1.7,
        Trace.Migrate_start
          { target = "w"; from_server = 0; to_server = 1;
            reason = "server crashed"; transfer_s = 0.08 } );
      ( 1.9,
        Trace.Migrate_done { target = "w"; server = 1; resumed_span_s = 0.4 } );
      (2.0, Trace.Queue { target = "w"; server = 0; wait_s = 0.2; depth = 1 });
      (2.2, Trace.Admit { target = "w"; server = 0; occupancy = 2; slot = 1 });
      (2.5, Trace.Reject { target = "w"; server = 0; queue_depth = 2 });
      (3.0, Trace.Refusal { target = "w" });
      (0.0, Trace.Power_state { state = "computing"; mw = 1000.0; duration_s = 3.0 });
    ];
  let expected =
    [
      ("offloads", "1");
      ("refusals", "1");
      ("estimates", "1");
      ("offload span (s)", "1.6500");
      ("communication (s)", "1.1000");
      ("  transfer (s)", "0.7000");
      ("  codec (s)", "0.1500");
      ("  fault service (s)", "0.2500");
      ("fn-ptr translations", "1");
      ("fn-ptr time (s)", "0.0010");
      ("remote I/O ops", "1");
      ("remote I/O time (s)", "0.0100");
      ("page faults", "1");
      ("prefetched pages", "3");
      ("prefetched bytes", "12288");
      ("flushes to server", "1");
      ("flushes to mobile", "1");
      ("raw bytes to server", "100");
      ("raw bytes to mobile", "200");
      ("wire bytes to server", "40");
      ("wire bytes to mobile", "60");
      ("faults injected", "1");
      ("rpc timeouts", "1");
      ("retries", "1");
      ("retry wait (s)", "0.4000");
      ("local fallbacks", "1");
      ("rollbacks", "1");
      ("recovery time (s)", "0.6000");
      ("local replays", "1");
      ("replay time (s)", "1.3500");
      ("server admits", "1");
      ("server rejects", "1");
      ("queued offloads", "1");
      ("queue wait (s)", "0.2000");
      ("checkpoints", "1");
      ("checkpoint pages", "2");
      ("checkpoint bytes", "8704");
      ("migrations started", "1");
      ("migrations completed", "1");
      ("migrate transfer (s)", "0.0800");
      ("migrate resume (s)", "0.4000");
      ("energy (mJ)", "3000.00");
      ("total time (s)", "3.0000");
    ]
  in
  Alcotest.(check (list (pair string string)))
    "to_rows reports every tracked counter" expected
    (Trace.Metrics.to_rows m)

(* Golden for the Chrome exporter on a tiny synthetic stream: locks
   the metadata records, phase letters, µs conversion and arg
   spelling. *)
let test_chrome_golden () =
  let events =
    [
      (0.0, Trace.Module_load { role = "mobile"; functions = 2; globals = 1 });
      (0.5, Trace.Offload_begin { target = "work" });
      ( 0.75,
        Trace.Flush
          { direction = Trace.To_server; raw_bytes = 100; wire_bytes = 40;
            transfer_s = 0.5; codec_s = 0.1 } );
      (2.0, Trace.Offload_end { target = "work"; dirty_pages = 3; span_s = 1.5 });
    ]
  in
  let expected =
    String.concat ""
      [
        "{\"traceEvents\":[";
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,";
        "\"args\":{\"name\":\"native-offloader\"}}";
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,";
        "\"tid\":1,\"args\":{\"name\":\"offload session\"}}";
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,";
        "\"tid\":2,\"args\":{\"name\":\"network\"}}";
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":1,";
        "\"tid\":3,\"args\":{\"name\":\"power\"}}";
        ",{\"name\":\"module-load:mobile\",\"ph\":\"i\",\"ts\":0.000,";
        "\"pid\":1,\"tid\":1,\"s\":\"t\",";
        "\"args\":{\"functions\":2,\"globals\":1}}";
        ",{\"name\":\"offload:work\",\"ph\":\"B\",\"ts\":500000.000,";
        "\"pid\":1,\"tid\":1}";
        ",{\"name\":\"flush:to-server\",\"ph\":\"X\",\"ts\":750000.000,";
        "\"pid\":1,\"tid\":2,\"dur\":600000.000,";
        "\"args\":{\"raw_bytes\":100,\"wire_bytes\":40,";
        "\"transfer_us\":500000.000,\"codec_us\":100000.000}}";
        ",{\"name\":\"offload:work\",\"ph\":\"E\",\"ts\":2000000.000,";
        "\"pid\":1,\"tid\":1,";
        "\"args\":{\"dirty_pages\":3,\"span_us\":1500000.000}}";
        "],\"displayTimeUnit\":\"ms\"}";
      ]
  in
  Alcotest.(check string) "chrome export golden" expected
    (Trace.Chrome.export events)

let tests =
  [
    Alcotest.test_case "fan-out" `Quick test_fan_out;
    Alcotest.test_case "zero-cost wrapper" `Quick test_ideal_flush_cost;
    Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "ring wraparound accounting" `Quick
      test_ring_wraparound_accounting;
    Alcotest.test_case "to_rows covers all counters" `Quick
      test_to_rows_covers_all_counters;
    Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
    Alcotest.test_case "parity: chess" `Quick test_parity_chess;
    Alcotest.test_case "parity: 456.hmmer" `Quick test_parity_hmmer;
    Alcotest.test_case "parity: 164.gzip" `Quick test_parity_gzip;
    Alcotest.test_case "parity: failover replay" `Quick
      test_parity_failover_replay;
    Alcotest.test_case "power resample" `Quick test_resample_matches_battery;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
  ]
