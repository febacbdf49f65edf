(* Trace-analysis layer tests: histogram quantile exactness and merge,
   span-tree goldens on synthetic streams, the span invariants as
   properties over every registry workload (clean and fault-injected),
   flamegraph export, the estimator audit on real runs (including a
   forced false positive via a bandwidth collapse), and the raw-trace
   file round trip with its strict loader diagnostics. *)

module Trace = No_trace.Trace
module Session = No_runtime.Session
module Registry = No_workloads.Registry
module Chess = No_workloads.Chess
module Fault_plan = No_fault.Plan
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment
module Span = No_obs.Span
module Hist = No_obs.Hist
module Flame = No_obs.Flame
module Audit = No_obs.Audit
module Trace_file = No_obs.Trace_file
module Series = No_obs.Series

let close ?(tol = 1e-9) label a b =
  let tol = tol *. (1.0 +. abs_float a) in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%g vs %g)" label a b)
    true
    (abs_float (a -. b) <= tol)

(* {1 Histograms} *)

let test_hist_single_value () =
  let h = Hist.create () in
  for _ = 1 to 100 do
    Hist.add h 0.25
  done;
  Alcotest.(check int) "count" 100 (Hist.count h);
  close "sum" 25.0 (Hist.sum h);
  close "min" 0.25 (Hist.min h);
  close "max" 0.25 (Hist.max h);
  close "mean" 0.25 (Hist.mean h);
  (* Every sample shares one bucket, so every quantile is exact. *)
  List.iter
    (fun q -> close (Printf.sprintf "p%g" (q *. 100.0)) 0.25 (Hist.quantile h q))
    [ 0.0; 0.01; 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* Powers of two land in distinct buckets (bucket width ≈9%), so
   nearest-rank quantiles are exact on this distribution. *)
let test_hist_exact_quantiles () =
  let h = Hist.create () in
  let values = List.init 10 (fun i -> Float.of_int (1 lsl i)) in
  List.iter (Hist.add h) values;
  Alcotest.(check int) "count" 10 (Hist.count h);
  close "sum" 1023.0 (Hist.sum h);
  (* rank = ceil (q*10): p50 -> 5th value (16), p90 -> 9th (256),
     p99 -> 10th (512), p100 -> 512, p10 -> 1st (1). *)
  close "p10" 1.0 (Hist.quantile h 0.10);
  close "p50" 16.0 (Hist.quantile h 0.50);
  close "p90" 256.0 (Hist.quantile h 0.90);
  close "p99" 512.0 (Hist.quantile h 0.99);
  close "p100" 512.0 (Hist.quantile h 1.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Hist.quantile: q outside [0,1]") (fun () ->
      ignore (Hist.quantile h 1.5))

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 1.0; 4.0; 16.0 ];
  List.iter (Hist.add b) [ 2.0; 8.0; 32.0; 64.0 ];
  let m = Hist.merge [ a; b ] in
  Alcotest.(check int) "merged count" 7 (Hist.count m);
  close "merged sum" 127.0 (Hist.sum m);
  close "merged min" 1.0 (Hist.min m);
  close "merged max" 64.0 (Hist.max m);
  (* Merged distribution = {1,2,4,8,16,32,64}; p50 -> 4th value. *)
  close "merged p50" 8.0 (Hist.quantile m 0.50);
  close "merged p99" 64.0 (Hist.quantile m 0.99);
  (* Merging must not disturb the sources. *)
  Alcotest.(check int) "a untouched" 3 (Hist.count a);
  Alcotest.(check int) "b untouched" 4 (Hist.count b);
  let empty = Hist.merge [] in
  Alcotest.(check int) "empty merge" 0 (Hist.count empty);
  Alcotest.(check bool) "empty quantile is NaN" true
    (Float.is_nan (Hist.quantile empty 0.5))

(* A value past about 1.8e296 overflows [v /. 1e-12]: it, and +inf,
   belong in the top bucket, above every ordinary sample. *)
let test_hist_huge_values () =
  let exact label want got = Alcotest.(check (float 0.0)) label want got in
  List.iter
    (fun top ->
      let h = Hist.create () in
      List.iter (Hist.add h) [ 1.0; 2.0; top ];
      let name = Printf.sprintf "[1; 2; %g]" top in
      exact (name ^ " p33") 1.0 (Hist.quantile h 0.33);
      exact (name ^ " p50") 2.0 (Hist.quantile h 0.50);
      exact (name ^ " p99") top (Hist.quantile h 0.99);
      Alcotest.(check int) (name ^ " count_le +inf") 3
        (Hist.count_le h infinity))
    [ 1e300; Float.max_float; infinity ]

(* {1 Span trees: synthetic goldens} *)

let synthetic_events =
  [
    (0.0, Trace.Module_load { role = "mobile"; functions = 2; globals = 1 });
    (0.1, Trace.Estimate
            { target = "work"; predicted_gain_s = 2.0; local_s = 3.0;
              decision = true });
    (0.1, Trace.Offload_begin { target = "work" });
    ( 0.1,
      Trace.Flush
        { direction = Trace.To_server; raw_bytes = 4096; wire_bytes = 1024;
          transfer_s = 0.2; codec_s = 0.05 } );
    (0.35, Trace.Page_fault { page = 7; service_s = 0.1 });
    (0.45, Trace.Page_fault { page = 8; service_s = 0.15 });
    ( 0.8,
      Trace.Flush
        { direction = Trace.To_mobile; raw_bytes = 2048; wire_bytes = 512;
          transfer_s = 0.1; codec_s = 0.0 } );
    (0.9, Trace.Offload_end { target = "work"; dirty_pages = 2; span_s = 0.8 });
    (1.4, Trace.Power_state { state = "computing"; mw = 1000.0; duration_s = 0.6 });
  ]

let test_span_golden () =
  let root = Span.of_events synthetic_events in
  let expected =
    String.concat "\n"
      [
        "run  total 2.000000s  self 1.200000s";
        "|- offload:work  total 0.800000s  self 0.200000s";
        "|  |- flush:to-server  0.250000s";
        "|  |- page-fault x2  0.250000s";
        "|  `- flush:to-mobile  0.100000s";
        "`- module-load:mobile  0.000000s";
        "";
      ]
  in
  Alcotest.(check string) "text tree" expected (Flame.to_text root)

let test_flame_golden () =
  let root = Span.of_events synthetic_events in
  let expected =
    String.concat "\n"
      [
        "run 1200000";
        "run;offload:work 200000";
        "run;offload:work;flush:to-server 250000";
        "run;offload:work;page-fault 250000";
        "run;offload:work;flush:to-mobile 100000";
        "";
      ]
  in
  Alcotest.(check string) "collapsed stacks" expected (Flame.to_collapsed root)

(* A run ends where its latest span closes, and the span tree and the
   windowed series agree on that instant: here the migration's 0.5 s
   checkpoint transfer, which starts at 0.1 s. *)
let test_span_series_close () =
  let events =
    [
      (0.0, Trace.Offload_begin { target = "work" });
      ( 0.1,
        Trace.Checkpoint
          { target = "work"; pages = 1; image_bytes = 4096; io_cursor = 0;
            ledger_bytes = 0 } );
      ( 0.1,
        Trace.Migrate_start
          { target = "work"; from_server = 0; to_server = 1;
            reason = "crash"; transfer_s = 0.5 } );
    ]
  in
  let root = Span.of_events events in
  Alcotest.(check (float 0.0)) "root total is the transfer's close"
    (0.1 +. 0.5) root.Span.total_s;
  Alcotest.(check (float 0.0)) "series duration equals the root total"
    root.Span.total_s
    (Series.duration_s (Series.of_events events))

(* A failure shape: the attempt dies, rolls back, replays locally; the
   whole episode must read as one [failed] subtree whose total covers
   the attempt span plus the replay. *)
let test_span_failure_shape () =
  let events =
    [
      (0.0, Trace.Offload_begin { target = "work" });
      (0.2, Trace.Rpc_timeout { op = "flush"; attempt = 1; waited_s = 0.3 });
      (0.5, Trace.Retry { op = "flush"; attempt = 2; backoff_s = 0.1 });
      (0.6, Trace.Fault_injected { kind = "server-crash"; op = "flush" });
      ( 0.6,
        Trace.Rollback { target = "work"; pages_restored = 4; bytes_discarded = 12 } );
      ( 0.6,
        Trace.Fallback_local { target = "work"; reason = "server dead"; recovery_s = 0.6 } );
      (0.6, Trace.Offload_end { target = "work"; dirty_pages = 0; span_s = 0.6 });
      (0.6, Trace.Replay { target = "work"; replay_s = 1.4 });
    ]
  in
  let root = Span.of_events events in
  close "root covers attempt + replay" 2.0 root.Span.total_s;
  (match root.Span.children with
  | [ failed ] ->
    Alcotest.(check string) "failed node name" "offload:work [failed]"
      failed.Span.name;
    close "failed total = span + replay" 2.0 failed.Span.total_s;
    let child name =
      List.find_opt (fun (n : Span.node) -> n.Span.name = name)
        failed.Span.children
    in
    Alcotest.(check bool) "has rollback" true (child "rollback" <> None);
    Alcotest.(check bool) "has fallback marker" true
      (child "fallback-local" <> None);
    (match child "local-replay" with
    | Some n -> close "replay nested under the failed attempt" 1.4 n.Span.total_s
    | None -> Alcotest.fail "local replay not nested under the failed attempt")
  | children ->
    Alcotest.fail
      (Printf.sprintf "expected exactly the failed attempt, got %d children"
         (List.length children)));
  close "root residue is zero" 0.0 root.Span.self_s

(* {1 Span invariants as properties over the registry} *)

let traced_session ?faults (entry : Registry.entry) compiled =
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let metrics = Trace.Metrics.create () in
  let config =
    { (Experiment.fast_config ()) with
      Session.trace =
        Trace.fan_out [ Trace.Ring.sink ring; Trace.Metrics.sink metrics ];
      Session.faults }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  let report = Session.run session in
  (report, Trace.Ring.events ring, metrics)

let check_span_invariants name events metrics =
  let root = Span.of_events events in
  close ~tol:1e-6
    (name ^ ": root total = metrics wall clock")
    (Trace.Metrics.total_s metrics)
    root.Span.total_s;
  Span.iter
    (fun ~depth:_ (n : Span.node) ->
      let children_total =
        List.fold_left (fun acc (c : Span.node) -> acc +. c.Span.total_s) 0.0
          n.Span.children
      in
      close ~tol:1e-6
        (Printf.sprintf "%s: %s children+self = total" name n.Span.name)
        n.Span.total_s
        (children_total +. n.Span.self_s);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s self non-negative" name n.Span.name)
        true
        (n.Span.self_s >= -1e-6))
    root

let test_span_properties_registry () =
  List.iter
    (fun (entry : Registry.entry) ->
      let compiled = Compiler.compile_entry entry in
      let _report, events, metrics = traced_session entry compiled in
      check_span_invariants entry.Registry.e_name events metrics)
    Registry.spec

(* Same invariants on a faulty run of a real workload: crash the
   server mid-run so the rollback + replay shape appears. *)
let test_span_properties_faulty () =
  let entry = Option.get (Registry.by_name "458.sjeng") in
  let compiled = Compiler.compile_entry entry in
  let clean, _, _ = traced_session entry compiled in
  let t = clean.Session.rep_total_s in
  let plan =
    match Fault_plan.parse (Printf.sprintf "crash=%.4f" (0.4 *. t)) with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let report, events, metrics = traced_session ~faults:plan entry compiled in
  Alcotest.(check bool) "the crash forced a fallback" true
    (report.Session.rep_fallbacks > 0);
  check_span_invariants "458.sjeng/crash" events metrics;
  let root = Span.of_events events in
  let failed =
    List.exists
      (fun (n : Span.node) ->
        String.length n.Span.name >= 8
        && String.sub n.Span.name (String.length n.Span.name - 8) 8
           = "[failed]")
      root.Span.children
  in
  Alcotest.(check bool) "a [failed] attempt node exists" true failed

(* {1 Estimator audit} *)

let test_audit_chess () =
  let compiled =
    Compiler.compile
      ~profile_script:(Chess.script ~depth:3 ~turns:2)
      ~eval_scale:2.0 (Chess.build ())
  in
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let config =
    { (Experiment.fast_config ()) with Session.trace = Trace.Ring.sink ring }
  in
  let session =
    Session.create ~config
      ~script:(Chess.script ~depth:4 ~turns:2)
      compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  let report = Session.run session in
  let rows = Audit.of_events (Trace.Ring.events ring) in
  let s = Audit.summarize rows in
  Alcotest.(check bool) "every decision audited" true (s.Audit.s_estimates > 0);
  Alcotest.(check int) "verdicts partition the rows" s.Audit.s_estimates
    (s.Audit.s_true_pos + s.Audit.s_false_pos + s.Audit.s_true_neg
    + s.Audit.s_false_neg + s.Audit.s_unverified);
  (* Offload decisions correspond to attempts; each must carry a
     directly measured (not proxied) gain. *)
  let offload_rows =
    List.filter (fun (r : Audit.row) -> r.Audit.a_decision) rows
  in
  Alcotest.(check int) "offload decisions = attempts"
    report.Session.rep_offloads
    (List.length offload_rows);
  List.iter
    (fun (r : Audit.row) ->
      Alcotest.(check bool) "measured, not proxied" false r.Audit.a_proxied;
      Alcotest.(check bool) "has a measured gain" true
        (r.Audit.a_measured_gain_s <> None))
    offload_rows;
  (* Chess on the fast network is the paper's showcase: the offloads
     must actually measure as wins (marginal attempts may still read
     as false positives against the estimator's Tm belief). *)
  Alcotest.(check bool) "fast-network chess offloads pay off" true
    (s.Audit.s_true_pos > 0)

let test_audit_sjeng () =
  let entry = Option.get (Registry.by_name "458.sjeng") in
  let compiled = Compiler.compile_entry entry in
  let report, events, _metrics = traced_session entry compiled in
  let rows = Audit.of_events events in
  let s = Audit.summarize rows in
  Alcotest.(check bool) "decisions audited" true (s.Audit.s_estimates > 0);
  Alcotest.(check int) "offload rows = attempts" report.Session.rep_offloads
    (List.length (List.filter (fun (r : Audit.row) -> r.Audit.a_decision) rows));
  Alcotest.(check bool) "mean abs error is finite" true
    (Float.is_finite s.Audit.s_mean_abs_err_s)

(* Force a false positive: collapse the bandwidth to 1% from the
   start.  The estimator prices its first decision at the link's
   nominal bandwidth, so it offloads — and the attempt pays
   collapsed-bandwidth prices the prediction never saw, measuring
   slower than the local belief.  gzip is the transfer-heavy workload
   (its ablation shows the slowdown on degraded links), so the
   collapsed transfer prices dominate. *)
let test_audit_forced_false_positive () =
  let entry = Option.get (Registry.by_name "164.gzip") in
  let compiled = Compiler.compile_entry entry in
  let plan =
    match Fault_plan.parse "collapse=0.0:0.01" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let _report, events, _metrics = traced_session ~faults:plan entry compiled in
  let s = Audit.summarize (Audit.of_events events) in
  Alcotest.(check bool)
    (Printf.sprintf "bandwidth collapse forces a false positive (TP %d FP %d)"
       s.Audit.s_true_pos s.Audit.s_false_pos)
    true (s.Audit.s_false_pos >= 1)

(* {1 Raw trace files} *)

let chess_events =
  lazy
    (let compiled =
       Compiler.compile
         ~profile_script:(Chess.script ~depth:3 ~turns:2)
         ~eval_scale:2.0 (Chess.build ())
     in
     let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
     let config =
       { (Experiment.fast_config ()) with Session.trace = Trace.Ring.sink ring }
     in
     let session =
       Session.create ~config
         ~script:(Chess.script ~depth:4 ~turns:2)
         compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
     in
     ignore (Session.run session);
     Trace.Ring.events ring)

let test_trace_file_round_trip () =
  (* Append scheduler events (emitted only under a shared-server
     handle) so the round trip covers every constructor the
     multi-client simulator produces. *)
  let events =
    Lazy.force chess_events
    @ [
        ( 9.0,
          Trace.Queue { target = "search"; server = 1; wait_s = 0.25; depth = 1 }
        );
        ( 9.25,
          Trace.Admit { target = "search"; server = 1; occupancy = 2; slot = 1 }
        );
        (9.5, Trace.Reject { target = "search"; server = 0; queue_depth = 2 });
      ]
  in
  let text = Trace_file.to_string events in
  match Trace_file.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok reloaded ->
    Alcotest.(check int) "event count" (List.length events)
      (List.length reloaded);
    Alcotest.(check bool) "events round-trip bit-exactly" true
      (events = reloaded);
    (* Serialize → parse → serialize is byte-identical, which is what
       makes re-analysis of a stored trace reproducible. *)
    Alcotest.(check string) "byte-identical re-serialization" text
      (Trace_file.to_string reloaded)

(* Two runs of the same seeded configuration must serialize — and
   therefore analyze — byte-identically. *)
let test_trace_file_deterministic () =
  let entry = Option.get (Registry.by_name "164.gzip") in
  let compiled = Compiler.compile_entry entry in
  let plan =
    match Fault_plan.parse "drop=0.03,seed=7" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let capture () =
    let _report, events, _metrics =
      traced_session ~faults:plan entry compiled
    in
    events
  in
  let a = capture () and b = capture () in
  let ta = Trace_file.to_string a and tb = Trace_file.to_string b in
  Alcotest.(check string) "seeded runs serialize identically" ta tb;
  let root_a = Span.of_events a and root_b = Span.of_events b in
  Alcotest.(check string) "span trees render identically"
    (Flame.to_text root_a) (Flame.to_text root_b);
  Alcotest.(check bool) "audits agree" true
    (Audit.of_events a = Audit.of_events b)

let expect_error label needle text =
  match Trace_file.of_string text with
  | Ok _ -> Alcotest.fail (label ^ ": bad input loaded successfully")
  | Error msg ->
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i =
        if i + n > h then false
        else String.sub hay i n = needle || go (i + 1)
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S mentions %S" label msg needle)
      true (contains msg needle)

let test_trace_file_diagnostics () =
  (* Version from the future: a clear refusal, not a parse attempt. *)
  expect_error "future version" "version"
    "{\"format\":\"no-trace-raw\",\"version\":5,\"events\":0}\n";
  (* Version 1 predates server ids on scheduler events: refused too. *)
  expect_error "pre-pool version" "version"
    "{\"format\":\"no-trace-raw\",\"version\":1,\"events\":0}\n";
  (* Truncated body: header promises more events than the file holds. *)
  expect_error "truncation" "truncated"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":2}\n\
     {\"ts\":0.5,\"kind\":\"refusal\",\"target\":\"t\"}\n";
  (* Unknown event kind, with the line number. *)
  expect_error "unknown kind" "line 2"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":1}\n\
     {\"ts\":0.5,\"kind\":\"bogus\"}\n";
  (* Missing field. *)
  expect_error "missing field" "service_s"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":1}\n\
     {\"ts\":0.5,\"kind\":\"page-fault\",\"page\":3}\n";
  (* Not this format at all. *)
  expect_error "wrong format" "header" "{\"traceEvents\":[]}\n";
  expect_error "empty file" "header" "";
  (* Garbage mid-file. *)
  expect_error "garbage line" "line 2"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":1}\n\
     not json\n";
  (* The number scanner takes nan and inf, not any word. *)
  expect_error "bare word" "line 2: bad number"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":1}\n\
     {\"ts\":0.5,\"kind\":\"page-fault\",\"page\":1,\"service_s\":nope}\n";
  (* Integer fields must hold exact integers, not the nearest one. *)
  expect_error "fractional int" "line 2: field \"pages\": expected an integer"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":1}\n\
     {\"ts\":0.5,\"kind\":\"prefetch\",\"pages\":1.5,\"bytes\":4096}\n";
  expect_error "fractional version"
    "line 1: field \"version\": expected an integer"
    "{\"format\":\"no-trace-raw\",\"version\":4.5,\"events\":0}\n";
  expect_error "infinite int" "line 2: field \"page\": expected an integer"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":1}\n\
     {\"ts\":0.5,\"kind\":\"page-fault\",\"page\":-inf,\"service_s\":0.1}\n";
  expect_error "out-of-range count"
    "line 1: field \"events\": expected an integer"
    "{\"format\":\"no-trace-raw\",\"version\":2,\"events\":1e30}\n"

let tests =
  [
    Alcotest.test_case "hist: single value" `Quick test_hist_single_value;
    Alcotest.test_case "hist: exact quantiles" `Quick test_hist_exact_quantiles;
    Alcotest.test_case "hist: merge" `Quick test_hist_merge;
    Alcotest.test_case "span: golden tree" `Quick test_span_golden;
    Alcotest.test_case "span: collapsed flamegraph" `Quick test_flame_golden;
    Alcotest.test_case "span: failure shape" `Quick test_span_failure_shape;
    Alcotest.test_case "span: run ends where the series does" `Quick
      test_span_series_close;
    Alcotest.test_case "span: registry invariants" `Quick
      test_span_properties_registry;
    Alcotest.test_case "span: faulty-run invariants" `Quick
      test_span_properties_faulty;
    Alcotest.test_case "audit: chess" `Quick test_audit_chess;
    Alcotest.test_case "audit: 458.sjeng" `Quick test_audit_sjeng;
    Alcotest.test_case "audit: forced false positive" `Quick
      test_audit_forced_false_positive;
    Alcotest.test_case "trace-file: round trip" `Quick
      test_trace_file_round_trip;
    Alcotest.test_case "trace-file: deterministic" `Quick
      test_trace_file_deterministic;
    Alcotest.test_case "trace-file: diagnostics" `Quick
      test_trace_file_diagnostics;
    Alcotest.test_case "hist: huge and infinite samples" `Quick
      test_hist_huge_values;
  ]
