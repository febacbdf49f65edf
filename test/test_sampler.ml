(* Tail-based trace sampler, SLO incident engine and the sampled
   (version-4) raw-trace format.

   The QCheck properties pin the sampler's contract: under any seed
   and budget every faulted, migrated or SLO-violating task is kept
   (the tail legs never defer to the probabilistic one); kept traces
   are row-complete (a budget-1.0 sampled run reproduces the full
   capture's event stream and span-tree root); and the kept set is a
   pure function of (stream, seed, budget), so a rerun keeps a
   byte-identical id list.  Unit tests cover the histogram exemplar
   reservoir, incident fire/resolve/still-firing semantics on a
   synthetic outage, and the sampled trace-file round trip (v3 files
   stay readable; sampled span trees attribute no root self-time). *)

module Trace = No_trace.Trace
module Rng = No_fault.Rng
module Fault_plan = No_fault.Plan
module Hist = No_obs.Hist
module Series = No_obs.Series
module Slo = No_obs.Slo
module Incident = No_obs.Incident
module Trace_file = No_obs.Trace_file
module Span = No_obs.Span
module Sim = No_sched.Sim

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i =
    if i + n > h then false else String.sub hay i n = needle || go (i + 1)
  in
  go 0

let plan_exn s =
  match Fault_plan.parse s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "fault plan %S: %s" s msg

let slo_exn s =
  match Slo.parse s with
  | Ok objs -> objs
  | Error msg -> Alcotest.failf "slo spec %S: %s" s msg

(* {1 Synthetic task streams}

   One task = estimate, offload-begin, optional fault / checkpoint
   marker, offload-end with a chosen span.  Enough structure for the
   sampler to segment tasks and classify them, with every row
   accounted for. *)

type spec = { t_faulted : bool; t_migrated : bool; t_span_s : float }

let rows_per_task spec =
  3 + (if spec.t_faulted then 1 else 0) + if spec.t_migrated then 1 else 0

let feed_client sampler ~client specs =
  let sink = Trace.Sampler.client_sink sampler ~client ~start_s:0.0 in
  let t = ref (0.01 *. float_of_int client) in
  let emit ev =
    Trace.replay sink [ (!t, ev) ];
    t := !t +. 0.001
  in
  List.iter
    (fun spec ->
      emit
        (Trace.Estimate
           { target = "t"; predicted_gain_s = 0.1; local_s = 1.0;
             decision = true });
      emit (Trace.Offload_begin { target = "t" });
      if spec.t_faulted then
        emit (Trace.Fault_injected { kind = "link-outage"; op = "init" });
      if spec.t_migrated then
        emit
          (Trace.Checkpoint
             { target = "t"; pages = 1; image_bytes = 64; io_cursor = 0;
               ledger_bytes = 0 });
      emit
        (Trace.Offload_end
           { target = "t"; dirty_pages = 1; span_s = spec.t_span_s }))
    specs

let feed_fleet sampler fleet =
  List.iteri (fun client specs -> feed_client sampler ~client specs) fleet;
  Trace.Sampler.flush sampler

let sampler_of ?(reservoir = 0) ?(slo_limit_s = infinity) ~seed ~budget () =
  Trace.Sampler.create ~reservoir ~slo_limit_s
    ~keep:(fun ~client ~task -> Rng.task_keep ~seed ~client ~task ~budget)
    ()

(* A fleet is 1-6 clients of 1-4 tasks each. *)
let fleet_gen =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (list_size (int_range 1 4)
         (map
            (fun ((f, m), s) ->
              { t_faulted = f; t_migrated = m; t_span_s = s })
            (pair (pair bool bool) (float_bound_inclusive 2.0)))))

let fleet_print fleet =
  String.concat ";"
    (List.map
       (fun specs ->
         String.concat ","
           (List.map
              (fun s ->
                Printf.sprintf "%c%c%.3f"
                  (if s.t_faulted then 'F' else '-')
                  (if s.t_migrated then 'M' else '-')
                  s.t_span_s)
              specs))
       fleet)

let arb_case =
  QCheck.make
    ~print:(fun (seed, budget, fleet) ->
      Printf.sprintf "seed=%d budget=%.3f fleet=%s" seed budget
        (fleet_print fleet))
    QCheck.Gen.(
      triple (int_bound 10_000) (float_bound_inclusive 1.0) fleet_gen)

let prop_tail_always_kept =
  QCheck.Test.make ~count:200
    ~name:"faulted/migrated/slo tasks kept under any seed and budget"
    arb_case
    (fun (seed, budget, fleet) ->
      let slo_limit_s = 1.0 in
      let sampler =
        sampler_of ~slo_limit_s ~seed:(Int64.of_int seed) ~budget ()
      in
      feed_fleet sampler fleet;
      let kept = Trace.Sampler.kept_ids sampler in
      List.for_all
        (fun x -> x)
        (List.concat
           (List.mapi
              (fun client specs ->
                List.mapi
                  (fun task spec ->
                    let must =
                      spec.t_faulted || spec.t_migrated
                      || spec.t_span_s >= slo_limit_s
                    in
                    (not must)
                    || List.mem (Printf.sprintf "c%d-t%d" client task) kept)
                  specs)
              fleet)))

let prop_kept_traces_row_complete =
  QCheck.Test.make ~count:200
    ~name:"kept traces are row-complete (no partial tasks)" arb_case
    (fun (seed, budget, fleet) ->
      let sampler = sampler_of ~seed:(Int64.of_int seed) ~budget () in
      feed_fleet sampler fleet;
      let specs_of id =
        Scanf.sscanf id "c%d-t%d" (fun c t ->
            List.nth (List.nth fleet c) t)
      in
      List.for_all
        (fun (id, events) ->
          List.length events = rows_per_task (specs_of id))
        (Trace.Sampler.kept_traces sampler))

let prop_rerun_identical =
  QCheck.Test.make ~count:100
    ~name:"same stream, seed and budget keep an identical set" arb_case
    (fun (seed, budget, fleet) ->
      let once () =
        let sampler =
          sampler_of ~reservoir:4 ~slo_limit_s:1.0
            ~seed:(Int64.of_int seed) ~budget ()
        in
        feed_fleet sampler fleet;
        Trace.Sampler.kept_ids sampler
      in
      once () = once ())

(* {1 The simulator end of the contract} *)

let fleet_config =
  { Sim.default_config with Sim.s_record_events = true }

let run_with_sampler ?(count = 6) ~budget ~seed () =
  let sampler =
    Trace.Sampler.create ~reservoir:4 ~slo_limit_s:1.0
      ~keep:(fun ~client ~task -> Rng.task_keep ~seed ~client ~task ~budget)
      ()
  in
  let cs =
    Sim.make_clients ~stagger_s:0.01
      ~faults:(plan_exn "outage=0.2:0.8,drop=0.05,seed=5")
      ~workloads:[ "164.gzip" ] ~count ()
  in
  let result =
    Sim.run ~config:{ fleet_config with Sim.s_sampler = Some sampler } cs
  in
  (result, sampler)

(* Budget 1.0 keeps every task, so the sampled stream must reproduce
   the full capture: same event count, same span-tree root.  The kept
   traces merge onto one timeline as a sampled raw-trace file holds
   them. *)
let test_budget_one_matches_full_capture () =
  let result, sampler = run_with_sampler ~budget:1.0 ~seed:1L () in
  let full = Sim.global_events result in
  let kept =
    match
      Trace_file.of_string_traces
        (Trace_file.to_string_traces (Trace.Sampler.kept_traces sampler))
    with
    | Ok (lines, _sampled) -> List.map (fun (ts, ev, _) -> (ts, ev)) lines
    | Error msg -> Alcotest.failf "sampled file does not load: %s" msg
  in
  Alcotest.(check int)
    "all tasks kept"
    (Trace.Sampler.tasks sampler)
    (Trace.Sampler.kept sampler);
  Alcotest.(check int)
    "sampled stream is the full stream" (List.length full)
    (List.length kept);
  let r_full = Span.of_events ~sampled:true full in
  let r_kept = Span.of_events ~sampled:true kept in
  Alcotest.(check bool)
    (Printf.sprintf "span roots match (%g vs %g)" r_full.Span.total_s
       r_kept.Span.total_s)
    true
    (abs_float (r_full.Span.total_s -. r_kept.Span.total_s) <= 1e-9)

(* Budget 0 leaves only the tail legs; the fault plan guarantees
   faulted tasks, and all of them must survive with full traces that
   are subsequences of the full capture. *)
let test_budget_zero_keeps_faulted () =
  let result, sampler = run_with_sampler ~budget:0.0 ~seed:1L () in
  let reasons = Trace.Sampler.reasons sampler in
  let reason r = List.assoc r reasons in
  Alcotest.(check bool)
    "fault plan produced kept faulted tasks" true
    (reason "faulted" > 0);
  Alcotest.(check int) "budget leg disabled" 0 (reason "budget");
  Alcotest.(check bool)
    "sampler dropped something" true
    (Trace.Sampler.kept sampler < Trace.Sampler.tasks sampler);
  let full = Sim.global_events result in
  List.iter
    (fun (_id, events) ->
      List.iter
        (fun (ts, ev) ->
          Alcotest.(check bool)
            "kept event present in full capture" true
            (List.exists (fun (fts, fev) -> fts = ts && fev = ev) full))
        events)
    (Trace.Sampler.kept_traces sampler)

let test_sim_rerun_deterministic () =
  let ids () = Trace.Sampler.kept_ids (snd (run_with_sampler ~budget:0.05 ~seed:9L ())) in
  Alcotest.(check (list string)) "kept ids byte-identical" (ids ()) (ids ())

let fleet_12 = lazy (snd (run_with_sampler ~count:12 ~budget:0.05 ~seed:3L ()))

let test_peak_buffering_bounded () =
  let sampler = Lazy.force fleet_12 in
  let peak = Trace.Sampler.buffered_rows_peak sampler in
  let seen = Trace.Sampler.rows_seen sampler in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d < total rows %d" peak seen)
    true (peak < seen)

(* The same fleet's kept traces, byte for byte as a sampled raw-trace
   file, with the counters that describe them. *)
let test_kept_golden () =
  let s = Lazy.force fleet_12 in
  Alcotest.(check string) "kept traces MD5" "701cf23d4484f0094e364a501d7f7801"
    (Digest.to_hex
       (Digest.string
          (Trace_file.to_string_traces (Trace.Sampler.kept_traces s))));
  Alcotest.(check (list int)) "tasks, kept, rows seen, kept, peak"
    [ 12; 5; 143; 101; 105 ]
    Trace.Sampler.
      [ tasks s; kept s; rows_seen s; rows_kept s; buffered_rows_peak s ];
  Alcotest.(check (list (pair string int))) "reasons"
    [ ("faulted", 3); ("migrated", 0); ("slo", 1); ("reservoir", 0);
      ("budget", 1) ]
    (Trace.Sampler.reasons s)

(* {1 Histogram exemplars} *)

let test_hist_exemplar_reservoir () =
  let h = Hist.create () in
  Alcotest.(check int) "empty" 0 (List.length (Hist.exemplars h));
  (* ~0.5% apart: same log-bucket (8 sub-buckets per octave), so the
     larger value wins the slot *)
  Hist.note_exemplar h ~trace_id:"a" 0.0100;
  Hist.note_exemplar h ~trace_id:"b" 0.01005;
  let same_bucket =
    List.filter (fun (_, v) -> v > 0.01001) (Hist.exemplars h)
  in
  Alcotest.(check int) "one exemplar per bucket" 1
    (List.length (Hist.exemplars h));
  Alcotest.(check int) "max value wins the bucket" 1 (List.length same_bucket);
  Hist.note_exemplar h ~trace_id:"nan" Float.nan;
  Alcotest.(check int) "NaN ignored" 1 (List.length (Hist.exemplars h));
  (* widely-spread values land in distinct buckets; the reservoir is
     bounded and sheds the lowest buckets first *)
  for i = 0 to 39 do
    Hist.note_exemplar h
      ~trace_id:(Printf.sprintf "t%d" i)
      (1e-6 *. (1.5 ** float_of_int i))
  done;
  let exs = Hist.exemplars h in
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%d <= 16)" (List.length exs))
    true
    (List.length exs <= 16);
  Alcotest.(check bool) "kept the largest value" true
    (List.exists (fun (_, v) -> v >= 1e-6 *. (1.5 ** 39.0)) exs)

let test_series_exemplar_merges () =
  let series = Series.create () in
  Trace.replay (Series.sink series)
    [ (0.5, Trace.Page_fault { page = 1; service_s = 0.2 }) ];
  Series.add_exemplar series ~ts:0.5
    (Trace.Page_fault { page = 1; service_s = 0.2 })
    ~trace_id:"c0-t0";
  let h = Series.kind_hist series "page-fault" in
  Alcotest.(check bool) "exemplar reaches the merged kind hist" true
    (List.mem ("c0-t0", 0.2) (Hist.exemplars h))

(* {1 Incident engine} *)

(* Page faults: healthy in windows 0-1, an outage-shaped violation in
   windows 2-4, healthy again in 5. *)
let outage_series ~heal =
  let series = Series.create () in
  let fault ts service_s =
    Trace.replay (Series.sink series)
      [ (ts, Trace.Page_fault { page = 1; service_s }) ]
  in
  fault 0.2 0.001;
  fault 1.2 0.001;
  fault 2.2 0.2;
  fault 3.2 0.2;
  fault 4.2 0.2;
  if heal then fault 5.2 0.001;
  series

let test_incident_fire_resolve () =
  let objectives = slo_exn "p99(page-fault)<=50ms" in
  let series = outage_series ~heal:true in
  match Incident.detect objectives series with
  | [ i ] ->
    Alcotest.(check string)
      "label" "p99(page-fault)<=0.05s" i.Incident.i_label;
    Alcotest.(check (float 1e-9)) "fired" 2.0 i.Incident.i_start_s;
    (match i.Incident.i_end_s with
    | Some e -> Alcotest.(check (float 1e-9)) "resolved" 5.0 e
    | None -> Alcotest.fail "expected a resolved incident");
    Alcotest.(check int) "windows" 3 i.Incident.i_windows;
    Alcotest.(check (float 1e-9)) "peak" 0.2 i.Incident.i_peak
  | l -> Alcotest.failf "expected one incident, got %d" (List.length l)

let test_incident_still_firing () =
  let objectives = slo_exn "p99(page-fault)<=50ms" in
  let series = outage_series ~heal:false in
  match Incident.detect objectives series with
  | [ i ] ->
    Alcotest.(check bool) "still firing" true (i.Incident.i_end_s = None);
    Alcotest.(check bool) "rendered as still-firing" true
      (contains (Incident.render [ i ]) "still-firing")
  | l -> Alcotest.failf "expected one incident, got %d" (List.length l)

let test_incident_exemplars_and_jsonl () =
  let objectives = slo_exn "p99(page-fault)<=50ms" in
  let series = outage_series ~heal:true in
  Series.add_exemplar series ~ts:2.2
    (Trace.Page_fault { page = 1; service_s = 0.2 })
    ~trace_id:"c3-t1";
  (match Incident.detect objectives series with
  | [ i ] ->
    Alcotest.(check (list string)) "exemplar ids harvested" [ "c3-t1" ]
      i.Incident.i_exemplars
  | l -> Alcotest.failf "expected one incident, got %d" (List.length l));
  let healthy = Series.create () in
  Trace.replay (Series.sink healthy)
    [ (0.5, Trace.Page_fault { page = 1; service_s = 0.001 }) ];
  Alcotest.(check string)
    "healthy series renders 'no incidents'" "no incidents"
    (Incident.render (Incident.detect objectives healthy));
  let jsonl = Incident.to_jsonl (Incident.detect objectives series) in
  Alcotest.(check bool) "jsonl names the clause" true
    (contains jsonl "p99(page-fault)<=0.05s")

(* Availability incidents: lower is worse, so an incident over a
   window at 0.5 and then one at 0.0 peaks at 0.0. *)
let test_incident_avail_peak () =
  let series = Series.create ~window_s:1.0 () in
  let attempt ts ~fails =
    Trace.replay (Series.sink series)
      ((ts, Trace.Offload_begin { target = "w" })
      ::
      (if fails then
         [ ( ts +. 0.1,
             Trace.Fallback_local
               { target = "w"; reason = "outage"; recovery_s = 0.1 } ) ]
       else []))
  in
  attempt 0.1 ~fails:true;
  attempt 0.5 ~fails:false;
  attempt 1.1 ~fails:true;
  match Incident.detect (slo_exn "avail>=0.99") series with
  | [ i ] ->
    Alcotest.(check int) "windows" 2 i.Incident.i_windows;
    Alcotest.(check (float 0.0)) "peak is the lowest availability" 0.0
      i.Incident.i_peak
  | l -> Alcotest.failf "expected one incident, got %d" (List.length l)

(* {1 Sampled trace files} *)

let sample_events =
  [
    (0.0, Trace.Offload_begin { target = "t" });
    (1.0, Trace.Offload_end { target = "t"; dirty_pages = 2; span_s = 1.0 });
  ]

let test_trace_file_sampled_round_trip () =
  let text = Trace_file.to_string_traces [ ("c0-t0", sample_events) ] in
  (match Trace_file.of_string_traces text with
  | Ok (events, sampled) ->
    Alcotest.(check bool) "sampled flag survives" true sampled;
    Alcotest.(check int) "events survive" 2 (List.length events)
  | Error msg -> Alcotest.failf "round trip failed: %s" msg);
  match Trace_file.of_string_traces (Trace_file.to_string sample_events) with
  | Ok (_, sampled) ->
    Alcotest.(check bool) "unsampled default" false sampled
  | Error msg -> Alcotest.failf "unsampled round trip failed: %s" msg

let test_trace_file_v3_still_reads () =
  let text =
    "{\"format\":\"no-trace-raw\",\"version\":3,\"events\":1}\n\
     {\"ts\":0.5,\"kind\":\"refusal\",\"target\":\"t\"}\n"
  in
  match Trace_file.of_string_traces text with
  | Ok (events, sampled) ->
    Alcotest.(check int) "v3 body reads" 1 (List.length events);
    Alcotest.(check bool) "v3 is unsampled" false sampled
  | Error msg -> Alcotest.failf "v3 file refused: %s" msg

let test_trace_file_tagged_traces () =
  let traces =
    [ ("c0-t0", sample_events);
      ("c1-t0", [ (0.5, Trace.Refusal { target = "u" }) ]) ]
  in
  let text = Trace_file.to_string_traces traces in
  match Trace_file.of_string_traces text with
  | Ok (tagged, sampled) ->
    Alcotest.(check bool) "traces file is sampled" true sampled;
    Alcotest.(check int) "all events present" 3 (List.length tagged);
    let ids = List.filter_map (fun (_, _, id) -> id) tagged in
    Alcotest.(check int) "every line tagged" 3 (List.length ids);
    Alcotest.(check bool) "merged in time order" true
      (let ts = List.map (fun (t, _, _) -> t) tagged in
       ts = List.sort compare ts)
  | Error msg -> Alcotest.failf "tagged file refused: %s" msg

let test_sampled_span_root_has_no_self_time () =
  (* A sampled stream with a large gap: the root must not claim the
     gap as its own compute. *)
  let events =
    sample_events
    @ [
        (100.0, Trace.Offload_begin { target = "t" });
        ( 101.0,
          Trace.Offload_end { target = "t"; dirty_pages = 0; span_s = 1.0 } );
      ]
  in
  let sampled = Span.of_events ~sampled:true events in
  let full = Span.of_events events in
  Alcotest.(check (float 1e-9)) "sampled root self" 0.0 sampled.Span.self_s;
  Alcotest.(check bool) "full capture still attributes the gap" true
    (full.Span.self_s > 50.0)

(* {1 The keep decision itself} *)

let test_task_keep_edges () =
  let seed = 7L in
  Alcotest.(check bool) "budget 1 keeps" true
    (Rng.task_keep ~seed ~client:3 ~task:2 ~budget:1.0);
  Alcotest.(check bool) "budget 0 drops" false
    (Rng.task_keep ~seed ~client:3 ~task:2 ~budget:0.0);
  Alcotest.(check bool) "pure in its inputs" true
    (Rng.task_keep ~seed ~client:5 ~task:1 ~budget:0.3
    = Rng.task_keep ~seed ~client:5 ~task:1 ~budget:0.3);
  (* At a generous budget, some tasks are kept and some dropped —
     the decision actually depends on (client, task). *)
  let decisions =
    List.init 64 (fun i ->
        Rng.task_keep ~seed ~client:(i / 8) ~task:(i mod 8) ~budget:0.5)
  in
  Alcotest.(check bool) "mixes keeps and drops" true
    (List.mem true decisions && List.mem false decisions)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_tail_always_kept;
    QCheck_alcotest.to_alcotest prop_kept_traces_row_complete;
    QCheck_alcotest.to_alcotest prop_rerun_identical;
    Alcotest.test_case "sim: budget 1.0 reproduces full capture" `Quick
      test_budget_one_matches_full_capture;
    Alcotest.test_case "sim: budget 0 keeps every faulted task" `Quick
      test_budget_zero_keeps_faulted;
    Alcotest.test_case "sim: rerun keeps identical ids" `Quick
      test_sim_rerun_deterministic;
    Alcotest.test_case "sim: peak buffering bounded" `Quick
      test_peak_buffering_bounded;
    Alcotest.test_case "sim: kept traces golden" `Quick test_kept_golden;
    Alcotest.test_case "hist: exemplar reservoir" `Quick
      test_hist_exemplar_reservoir;
    Alcotest.test_case "series: exemplar merges into kind hist" `Quick
      test_series_exemplar_merges;
    Alcotest.test_case "incident: fires and resolves" `Quick
      test_incident_fire_resolve;
    Alcotest.test_case "incident: still firing at end of run" `Quick
      test_incident_still_firing;
    Alcotest.test_case "incident: availability peak is the lowest" `Quick
      test_incident_avail_peak;
    Alcotest.test_case "incident: exemplars and jsonl" `Quick
      test_incident_exemplars_and_jsonl;
    Alcotest.test_case "trace-file: sampled round trip" `Quick
      test_trace_file_sampled_round_trip;
    Alcotest.test_case "trace-file: v3 still reads" `Quick
      test_trace_file_v3_still_reads;
    Alcotest.test_case "trace-file: tagged kept traces" `Quick
      test_trace_file_tagged_traces;
    Alcotest.test_case "span: sampled root has no self time" `Quick
      test_sampled_span_root_has_no_self_time;
    Alcotest.test_case "rng: task_keep edges" `Quick test_task_keep_edges;
  ]
