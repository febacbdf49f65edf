(* Telemetry-layer tests: the windowed Series conservation invariant
   (its run totals are the one fold of the stream, bit for bit an
   independent end-of-run sink, and its windows add up to every int
   counter) over the whole registry, a faulted run and the
   multi-client simulator, windowing mechanics on synthetic streams,
   the SLO grammar (parse + evaluate, including the fast/slow burn
   pair), OpenMetrics exposition format and determinism, and the trace
   differ (self-diff is zero and byte-stable; a fault-injected rerun's
   regression is attributed to the timeout/backoff spans). *)

module Trace = No_trace.Trace
module Session = No_runtime.Session
module Registry = No_workloads.Registry
module Fault_plan = No_fault.Plan
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment
module Sim = No_sched.Sim
module Hist = No_obs.Hist
module Series = No_obs.Series
module Openmetrics = No_obs.Openmetrics
module Slo = No_obs.Slo
module Incident = No_obs.Incident
module Diff = No_obs.Diff

let close ?(tol = 1e-9) label a b =
  let tol = tol *. (1.0 +. abs_float a) in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%g vs %g)" label a b)
    true
    (abs_float (a -. b) <= tol)

(* Conservation: the series' run totals are the same fold as an
   independent sink over the same stream, so the two records marshal
   to the same bytes.  The windows fold the same events minus power
   segments, so their int counters (the rows [to_rows] prints as
   integers) add up to the run's. *)
let check_metrics_conserved name series (direct : Trace.Metrics.t) =
  let bits m = Marshal.to_string m [ Marshal.No_sharing ] in
  Alcotest.(check bool)
    (name ^ ": totals equal bit for bit")
    true
    (String.equal (bits (Series.totals series)) (bits direct));
  let counters m =
    List.filter_map
      (fun (label, v) -> Option.map (fun n -> (label, n)) (int_of_string_opt v))
      (Trace.Metrics.to_rows m)
  in
  let summed =
    List.fold_left
      (fun acc (w : Series.window) ->
        List.map2
          (fun (label, a) (_, b) -> (label, a + b))
          acc
          (counters w.Series.w_metrics))
      (List.map (fun (label, _) -> (label, 0)) (counters direct))
      (Series.windows series)
  in
  Alcotest.(check (list (pair string int)))
    (name ^ ": windows add up to the run")
    (counters direct) summed

(* {1 Windowing mechanics} *)

let test_series_windowing () =
  let series = Series.create ~window_s:1.0 () in
  let feed ts ev = Trace.replay (Series.sink series) [ (ts, ev) ] in
  feed 0.2 (Trace.Offload_begin { target = "w" });
  feed 0.3 (Trace.Queue { target = "w"; server = 0; wait_s = 0.1; depth = 2 });
  feed 0.4 (Trace.Admit { target = "w"; server = 0; occupancy = 2; slot = 1 });
  feed 0.5 (Trace.Bw_sample { bps = 8e6 });
  (* A fleet streams out of time order: the gauge keeps the sample
     that is latest in simulated time, not the last to arrive. *)
  feed 0.45 (Trace.Bw_sample { bps = 1e6 });
  (* Window 1 is a gap; window 2 gets the tail. *)
  feed 2.5 (Trace.Page_fault { page = 3; service_s = 0.2 });
  feed 2.6
    (Trace.Power_state { state = "computing"; mw = 1000.0; duration_s = 1.0 });
  let windows = Series.windows series in
  (* The power segment reaches 3.6 s, so the series covers windows
     0..3 even though only 0 and 2 were touched. *)
  Alcotest.(check int) "dense cover" 4 (List.length windows);
  Alcotest.(check (list int)) "indices"
    [ 0; 1; 2; 3 ]
    (List.map (fun (w : Series.window) -> w.Series.w_index) windows);
  close "duration" 3.6 (Series.duration_s series);
  let w i = List.nth windows i in
  Alcotest.(check int) "w0 offloads" 1
    (w 0).Series.w_metrics.Trace.Metrics.offloads;
  Alcotest.(check int) "w0 queue peak (depth+self)" 3
    (w 0).Series.w_peak_queue_depth;
  Alcotest.(check int) "w0 occupancy peak" 2 (w 0).Series.w_peak_occupancy;
  close "w0 bandwidth belief" 8e6 (w 0).Series.w_bw_bps;
  Alcotest.(check bool) "gap window is empty" true
    ((w 1).Series.w_metrics.Trace.Metrics.offloads = 0
    && Float.is_nan (w 1).Series.w_bw_bps);
  Alcotest.(check int) "w2 faults" 1
    (w 2).Series.w_metrics.Trace.Metrics.fault_count;
  (* A power segment folds into the run's totals only. *)
  close "w2 energy" 0.0 (w 2).Series.w_metrics.Trace.Metrics.energy_mj;
  close "run energy" 1000.0
    (Series.totals series).Trace.Metrics.energy_mj;
  (* Repeated calls hand back the same cached structure. *)
  Alcotest.(check bool) "windows cached" true
    (List.for_all2 ( == ) windows (Series.windows series));
  (* Merged histogram across windows sees both the queue wait and the
     fault service time. *)
  Alcotest.(check int) "queue-wait hist count" 1
    (Hist.count (Series.kind_hist series "queue-wait"));
  Alcotest.(check int) "page-fault hist count" 1
    (Hist.count (Series.kind_hist series "page-fault"));
  Alcotest.check_raises "bad window width"
    (Invalid_argument "Series.create: window_s") (fun () ->
      ignore (Series.create ~window_s:0.0 ()))

(* {1 Conservation over the registry} *)

let series_session ?faults ?config (entry : Registry.entry) compiled =
  let metrics = Trace.Metrics.create () in
  let series = Series.create ~window_s:0.25 () in
  let base =
    match config with Some c -> c | None -> Experiment.fast_config ()
  in
  let config =
    { base with
      Session.trace =
        Trace.fan_out [ Trace.Metrics.sink metrics; Series.sink series ];
      Session.faults }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  let report = Session.run session in
  (report, series, metrics)

let test_conservation_registry () =
  List.iter
    (fun (entry : Registry.entry) ->
      let _report, series, metrics =
        series_session entry (Compiler.compile_entry entry)
      in
      check_metrics_conserved entry.Registry.e_name series metrics)
    Registry.spec

(* Conservation must survive the messy shapes too: a fault-injected
   run full of timeouts, retries, rollback and replay. *)
let test_conservation_faulty () =
  let entry = Option.get (Registry.by_name "164.gzip") in
  let compiled = Compiler.compile_entry entry in
  (* Default link + message drops, like the bench fault sweep: at
     profile scale a drop reliably produces the timeout/retry shape. *)
  let config = Session.default_config () in
  let plan =
    match Fault_plan.parse "drop=0.03,seed=7" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let report, series, metrics =
    series_session ~faults:plan ~config entry compiled
  in
  Alcotest.(check bool) "the drops caused timeouts" true
    (report.Session.rep_rpc_timeouts > 0);
  check_metrics_conserved "164.gzip/drop" series metrics

(* {1 Multi-client: global stream, conservation, byte-stable metrics} *)

(* A 4-client fleet that records its per-client traces and also
   streams every event, on the global clock, into a live series and an
   independent sink — the path `serve` takes. *)
let sim_result () =
  let series = Series.create () and direct = Trace.Metrics.create () in
  let config =
    { Sim.default_config with
      Sim.s_global_sink =
        Some (Trace.fan_out [ Series.sink series; Trace.Metrics.sink direct ])
    }
  in
  let clients =
    Sim.make_clients ~stagger_s:0.02 ~workloads:[ "164.gzip" ] ~count:4 ()
  in
  (Sim.run ~config clients, series, direct)

let test_sim_series_deterministic () =
  let ra, live_a, direct = sim_result () and rb, live_b, _ = sim_result () in
  let ea = Sim.global_events ra and eb = Sim.global_events rb in
  Alcotest.(check int) "rerun event count" (List.length ea) (List.length eb);
  (* Global stream is chronological. *)
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as tl) -> a <= b && ascending tl
    | _ -> true
  in
  Alcotest.(check bool) "globally sorted" true (ascending ea);
  check_metrics_conserved "4-client fleet" live_a direct;
  (* The whole OpenMetrics exposition is byte-identical across seeded
     reruns — the bench lane archives and diffs this file. *)
  let expose s = Openmetrics.of_run ~series:s (Series.totals s) in
  Alcotest.(check string) "OpenMetrics byte-identical" (expose live_a)
    (expose live_b)

(* {1 OpenMetrics format} *)

let test_openmetrics_format () =
  let entry = Option.get (Registry.by_name "164.gzip") in
  let _report, series, metrics =
    series_session entry (Compiler.compile_entry entry)
  in
  let text = Openmetrics.of_run ~series metrics in
  let has needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ends with EOF terminator" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (has needle))
    [
      "# TYPE offload_offloads counter";
      "offload_offloads_total 1";
      "offload_wire_bytes_total{direction=\"to-server\"}";
      "# TYPE offload_run_duration_seconds gauge";
      "offload_latency_seconds{kind=\"flush\",quantile=\"0.99\"}";
      "offload_window_offloads";
      "offload_power_state_seconds_total{state=";
    ];
  (* Without a series, only whole-run families appear. *)
  Alcotest.(check bool) "no window families without a series" true
    (let bare = Openmetrics.of_run metrics in
     not
       (let n = String.length "offload_window_" in
        let h = String.length bare in
        let rec go i =
          i + n <= h && (String.sub bare i n = "offload_window_" || go (i + 1))
        in
        go 0))

(* {1 SLO grammar} *)

let test_slo_parse () =
  (match Slo.parse "avail>=0.99,p99(PageFault)<=50ms,rate(retries)<=0.5" with
  | Ok [ Slo.Avail { min }; Slo.Quantile { q; kind; limit_s };
         Slo.Rate { counter; max_per_s } ] ->
    close "avail min" 0.99 min;
    close "quantile" 0.99 q;
    Alcotest.(check string) "kind normalized" "page-fault" kind;
    close "limit in seconds" 0.05 limit_s;
    Alcotest.(check string) "counter" "retries" counter;
    close "rate limit" 0.5 max_per_s
  | Ok _ -> Alcotest.fail "wrong objective shapes"
  | Error msg -> Alcotest.fail msg);
  (match Slo.parse "burn(0.99,fast=3,slow=12)<=14" with
  | Ok [ Slo.Burn { target; max_rate; fast; slow } ] ->
    close "burn target" 0.99 target;
    close "burn limit" 14.0 max_rate;
    Alcotest.(check int) "fast windows" 3 fast;
    Alcotest.(check int) "slow windows" 12 slow
  | Ok _ -> Alcotest.fail "wrong burn shape"
  | Error msg -> Alcotest.fail msg);
  (match Slo.parse Slo.default_spec with
  | Ok objectives ->
    Alcotest.(check int) "default spec parses" 3 (List.length objectives)
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad))
    [ ""; "p99(nope)<=5ms"; "p0(flush)<=1s"; "rate(bogus)<=1";
      "burn(1.5)<=14"; "burn(0.99,fast=0)<=14"; "avail>=x"; "nonsense";
      "p99(page-fault)<=-5ms"; "rate(retries)<=-1"; "burn(0.99)<=-2";
      "avail>=1.5"; "avail>=-1" ]

(* Synthetic series with a failure burst at the end: avail degrades,
   the fast burn window sees the burst but the slow window absorbs
   it — the fast/slow pair only alarms when both agree. *)
let slo_series () =
  let series = Series.create ~window_s:1.0 () in
  let feed ts ev = Trace.replay (Series.sink series) [ (ts, ev) ] in
  for i = 0 to 9 do
    let ts = (float_of_int i *. 1.0) +. 0.1 in
    feed ts (Trace.Offload_begin { target = "w" });
    feed (ts +. 0.01) (Trace.Page_fault { page = i; service_s = 0.004 });
    if i >= 8 then
      feed (ts +. 0.2)
        (Trace.Fallback_local
           { target = "w"; reason = "outage"; recovery_s = 0.1 })
  done;
  (* A closing power segment pins the covered timeline to 10.0 s
     (windows 0..9, failures in the last two). *)
  feed 9.7
    (Trace.Power_state { state = "waiting"; mw = 100.0; duration_s = 0.3 });
  series

let test_slo_evaluate () =
  let series = slo_series () in
  let eval spec =
    match Slo.parse spec with
    | Ok objectives -> Slo.evaluate objectives series
    | Error msg -> Alcotest.fail msg
  in
  (* 10 attempts, 2 fallbacks -> avail 0.8. *)
  (match eval "avail>=0.99" with
  | [ v ] ->
    close "avail value" 0.8 v.Slo.v_value;
    Alcotest.(check bool) "avail fails" false v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (match eval "avail>=0.75" with
  | [ v ] -> Alcotest.(check bool) "looser avail passes" true v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (* All 10 fault services are 4 ms. *)
  (match eval "p99(page-fault)<=50ms" with
  | [ v ] ->
    close "p99 value" 0.004 v.Slo.v_value;
    Alcotest.(check bool) "p99 passes" true v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (match eval "p99(page-fault)<=1ms" with
  | [ v ] -> Alcotest.(check bool) "tight p99 fails" false v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (* An empty latency kind trivially passes. *)
  (match eval "p99(remote-io)<=1us" with
  | [ v ] -> Alcotest.(check bool) "empty kind passes" true v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (* 10 offloads over the 10 s covered timeline: exactly 1/s. *)
  (match eval "rate(offloads)<=1" with
  | [ v ] -> Alcotest.(check bool) "rate passes" true v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (match eval "rate(offloads)<=0.5" with
  | [ v ] -> Alcotest.(check bool) "tight rate fails" false v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (* Burn: per-window error ratio is 1.0 in the last two windows, 0
     elsewhere; budget 1% -> window burn 100.  fast=2 sees 100, but
     slow=10 averages 20 <= 25 — no alarm.  Tightening the limit to
     something both exceed must alarm. *)
  (match eval "burn(0.99,fast=2,slow=10)<=25" with
  | [ v ] ->
    close "burn value = max(fast,slow)" 100.0 v.Slo.v_value;
    Alcotest.(check bool) "slow window vetoes the alarm" true v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  (match eval "burn(0.99,fast=2,slow=10)<=10" with
  | [ v ] -> Alcotest.(check bool) "both windows exceed -> alarm" false
               v.Slo.v_pass
  | _ -> Alcotest.fail "one verdict expected");
  let verdicts = eval "avail>=0.75,p99(page-fault)<=50ms" in
  Alcotest.(check bool) "conjunction passes" true (Slo.pass verdicts);
  let rendered = Slo.render verdicts in
  Alcotest.(check bool) "render mentions every clause" true
    (String.length rendered > 0
    && String.equal rendered (Slo.render verdicts))

(* The incident engine applies the same fast/slow burn pair at every
   window: on [slo_series] both trailing means first exceed 10 in
   window 8 and stay above it to the end, and the incident's peak is
   the end-of-run verdict's value, bit for bit. *)
let test_slo_burn_incident () =
  let series = slo_series () in
  let objectives =
    match Slo.parse "burn(0.99,fast=2,slow=10)<=10" with
    | Ok objectives -> objectives
    | Error msg -> Alcotest.fail msg
  in
  match (Incident.detect objectives series, Slo.evaluate objectives series) with
  | [ i ], [ v ] ->
    Alcotest.(check (float 0.0)) "fired" 8.0 i.Incident.i_start_s;
    Alcotest.(check bool) "still firing" true (i.Incident.i_end_s = None);
    Alcotest.(check int) "windows" 2 i.Incident.i_windows;
    Alcotest.(check int64) "peak = verdict value, bit for bit"
      (Int64.bits_of_float v.Slo.v_value)
      (Int64.bits_of_float i.Incident.i_peak)
  | incidents, _ ->
    Alcotest.failf "expected one incident, got %d" (List.length incidents)

(* {1 Trace diff} *)

let traced_events ?faults entry compiled =
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  (* Default link, so an outage plan derived from the clean duration
     lands on real wire traffic (same reasoning as the fault sweep). *)
  let config =
    { (Session.default_config ()) with
      Session.trace = Trace.Ring.sink ring; Session.faults }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  ignore (Session.run session : Session.report);
  Trace.Ring.events ring

let test_diff_self_zero () =
  let entry = Option.get (Registry.by_name "164.gzip") in
  let compiled = Compiler.compile_entry entry in
  let events = traced_events entry compiled in
  let report = Diff.compare_events events events in
  Alcotest.(check bool) "self-diff is zero" true (Diff.is_zero report);
  close "wall delta" 0.0 (Diff.wall_delta_s report);
  List.iter
    (fun (row : Diff.row) ->
      Alcotest.(check int)
        (row.Diff.d_path ^ ": counts equal")
        row.Diff.d_count_a row.Diff.d_count_b)
    report.Diff.r_rows;
  (* A deterministic rerun diffs to the byte-identical report. *)
  let rerun = Diff.compare_events (traced_events entry compiled) events in
  Alcotest.(check bool) "rerun still zero" true (Diff.is_zero rerun);
  Alcotest.(check string) "render byte-identical"
    (Diff.render report) (Diff.render rerun);
  Alcotest.(check string) "json byte-identical"
    (Diff.to_json report) (Diff.to_json rerun)

(* A lossy-link rerun versus the clean run: the regression must be
   attributed to the timeout/backoff spans, and the kind table must
   show rpc-timeout time appearing. *)
let test_diff_attribution () =
  let entry = Option.get (Registry.by_name "164.gzip") in
  let compiled = Compiler.compile_entry entry in
  let clean = traced_events entry compiled in
  let plan =
    match Fault_plan.parse "drop=0.03,seed=7" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let faulty = traced_events ~faults:plan entry compiled in
  let report = Diff.compare_events clean faulty in
  Alcotest.(check bool) "regression detected" true
    (Diff.wall_delta_s report > 0.0);
  Alcotest.(check bool) "not zero" false (Diff.is_zero report);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let top = Diff.top ~n:3 report in
  Alcotest.(check bool) "top rows name the failure spans" true
    (List.exists
       (fun (r : Diff.row) ->
         contains r.Diff.d_path "rpc-timeout"
         || contains r.Diff.d_path "backoff"
         || contains r.Diff.d_path "[failed]")
       top);
  (* The heaviest-ranked row is the regression itself. *)
  (match top with
  | first :: _ ->
    Alcotest.(check bool)
      (first.Diff.d_path ^ " got slower")
      true
      (first.Diff.d_self_b_s -. first.Diff.d_self_a_s > 0.0)
  | [] -> Alcotest.fail "no node rows");
  let kind name =
    List.find_opt (fun (k : Diff.kind_row) -> k.Diff.k_kind = name)
      report.Diff.r_kinds
  in
  (match kind "rpc-timeout" with
  | Some k ->
    Alcotest.(check bool) "timeouts appeared" true (k.Diff.k_count_b > 0);
    Alcotest.(check bool) "timeout time grew" true
      (k.Diff.k_time_b_s > k.Diff.k_time_a_s)
  | None -> Alcotest.fail "rpc-timeout kind row missing");
  (* The JSON view carries the same attribution for the CI guard. *)
  let json = Diff.to_json report in
  Alcotest.(check bool) "json names the timeout kind" true
    (contains json "\"kind\": \"rpc-timeout\"");
  Alcotest.(check bool) "json is not zero" true
    (contains json "\"zero\": false")

let tests =
  [
    Alcotest.test_case "series windowing" `Quick test_series_windowing;
    Alcotest.test_case "conservation across the registry" `Slow
      test_conservation_registry;
    Alcotest.test_case "conservation under faults" `Quick
      test_conservation_faulty;
    Alcotest.test_case "fleet series deterministic" `Quick
      test_sim_series_deterministic;
    Alcotest.test_case "openmetrics format" `Quick test_openmetrics_format;
    Alcotest.test_case "slo parse" `Quick test_slo_parse;
    Alcotest.test_case "slo evaluate" `Quick test_slo_evaluate;
    Alcotest.test_case "slo burn incident" `Quick test_slo_burn_incident;
    Alcotest.test_case "diff self is zero" `Quick test_diff_self_zero;
    Alcotest.test_case "diff attributes the lossy link" `Quick
      test_diff_attribution;
  ]
