(* Runtime event spine tests: sink plumbing (fan-out, ring buffer,
   zero-cost wrapper), aggregation parity — the metrics sink must
   reproduce the session's mutable overhead counters bit-for-bit on
   real workloads — power-trace resampling, and the Chrome-trace
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

(* {1 Sink plumbing} *)

let recording () =
  let log = ref [] in
  let sink ~ts row = log := (ts, Trace.Row.to_event row) :: !log in
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

(* {1 Aggregation parity}

   Fixed workloads, default and ideal configurations: every statistic
   the session reports from its mutable counters must be reproduced by
   the metrics sink folded over the event stream. *)

let close label a b =
  (* Identical accumulation up to float summation-order noise. *)
  let tol = 1e-6 *. (1.0 +. abs_float a) in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%g vs %g)" label a b)
    true
    (abs_float (a -. b) <= tol)

let check_parity name (config : Session.config) ~script ~files compiled =
  let m = Trace.Metrics.create () in
  let config = { config with Session.trace = Trace.Metrics.sink m } in
  let session =
    Session.create ~config ~script ~files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  let r = Session.run session in
  let i = Alcotest.(check int) in
  i (name ^ ": offloads") r.Session.rep_offloads m.Trace.Metrics.offloads;
  i (name ^ ": refusals") r.Session.rep_refusals m.Trace.Metrics.refusals;
  i (name ^ ": faults") r.Session.rep_faults m.Trace.Metrics.fault_count;
  i (name ^ ": prefetched pages") r.Session.rep_prefetched_pages
    m.Trace.Metrics.prefetched_pages;
  i (name ^ ": fnptr translations") r.Session.rep_fnptr_translations
    m.Trace.Metrics.fnptr_count;
  i (name ^ ": remote I/O ops") r.Session.rep_remote_io_ops
    m.Trace.Metrics.remote_io_count;
  i (name ^ ": bytes to server") r.Session.rep_bytes_to_server
    m.Trace.Metrics.raw_to_server;
  i (name ^ ": bytes to mobile") r.Session.rep_bytes_to_mobile
    m.Trace.Metrics.raw_to_mobile;
  i (name ^ ": wire bytes to mobile") r.Session.rep_wire_bytes_to_mobile
    m.Trace.Metrics.wire_to_mobile;
  close (name ^ ": comm_s") r.Session.rep_comm_s (Trace.Metrics.comm_s m);
  close (name ^ ": fnptr_s") r.Session.rep_fnptr_s m.Trace.Metrics.fnptr_s;
  close (name ^ ": remote_io_s") r.Session.rep_remote_io_s
    m.Trace.Metrics.remote_io_s;
  close (name ^ ": server span") r.Session.rep_server_span_s
    m.Trace.Metrics.offload_span_s;
  close (name ^ ": total_s") r.Session.rep_total_s (Trace.Metrics.total_s m);
  close (name ^ ": energy_mj") r.Session.rep_energy_mj
    m.Trace.Metrics.energy_mj

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
  let compiled =
    Compiler.compile ~profile_script:entry.Registry.e_profile_script
      ~profile_files:entry.Registry.e_files
      ~eval_scale:entry.Registry.e_eval_scale
      (entry.Registry.e_build ())
  in
  (* Profile-script scale keeps the suite fast; the stream shape is
     identical to the full evaluation run. *)
  check_parity name
    (Experiment.fast_config ())
    ~script:entry.Registry.e_profile_script ~files:entry.Registry.e_files
    compiled

let test_parity_hmmer () = spec_parity "456.hmmer"
let test_parity_gzip () = spec_parity "164.gzip"

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
  let expect = Battery.resample battery ~period_s:0.25 in
  let got = Trace.Metrics.resample_power m ~period_s:0.25 ~idle_mw in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "resample matches Battery.resample" expect got;
  close "energy parity" (Battery.energy_mj battery) m.Trace.Metrics.energy_mj;
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
    Alcotest.test_case "power resample" `Quick test_resample_matches_battery;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
  ]
