(* Self-profiler tests.  The load-bearing guarantee is transparency:
   enabling the profiler must never perturb simulated results — same
   report record, same event stream (timestamps and wire bytes
   included), same fleet render — because the zones wrap host-side
   bookkeeping only.  The rest checks the accounting itself: disabled
   mode counts nothing, nesting attributes to the innermost zone,
   exceptional unwinds are tolerated and counted, and the OpenMetrics
   exposition is byte-stable. *)

module Selfprof = No_selfprof.Selfprof
module Openmetrics = No_obs.Openmetrics

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0
module Trace = No_trace.Trace
module Session = No_runtime.Session
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Sim = No_sched.Sim
module Pool = No_sched.Pool
module Server_load = No_sched.Server_load

(* Run one offload session against a ring sink and fingerprint it:
   the full report record plus the raw event stream. *)
let run_fingerprint entry compiled =
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let config =
    { (Session.default_config ()) with
      Session.trace = Trace.Ring.sink ring }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  let r = Session.run session in
  (r, Trace.Ring.events ring)

(* {1 Transparency: sessions} *)

let check_session_transparent name =
  let entry = Option.get (Registry.by_name name) in
  let compiled = Compiler.compile_entry entry in
  Selfprof.disable ();
  Selfprof.reset ();
  let r_off, ev_off = run_fingerprint entry compiled in
  Selfprof.enable ();
  Selfprof.reset ();
  let r_on, ev_on = run_fingerprint entry compiled in
  Selfprof.disable ();
  Alcotest.(check bool) (name ^ ": identical report") true (r_off = r_on);
  Alcotest.(check bool)
    (name ^ ": identical event stream")
    true (ev_off = ev_on)

let test_session_transparency () =
  check_session_transparent "164.gzip";
  check_session_transparent "458.sjeng"

(* {1 Transparency: fleet} *)

let fleet_config ~slots ~queue ~servers ~policy =
  { Sim.default_config with
    Sim.s_load =
      { Server_load.default with Server_load.slots; queue_cap = queue };
    Sim.s_servers = servers;
    Sim.s_policy = policy }

let fleet_render ~count ~policy =
  let clients =
    Sim.make_clients ~stagger_s:0.02 ~workloads:[ "164.gzip"; "429.mcf" ]
      ~count ()
  in
  Sim.render
    (Sim.run ~config:(fleet_config ~slots:1 ~queue:1 ~servers:2 ~policy)
       clients)

let test_fleet_transparency () =
  Selfprof.disable ();
  let off = fleet_render ~count:4 ~policy:Pool.Round_robin in
  Selfprof.enable ();
  Selfprof.reset ();
  let on = fleet_render ~count:4 ~policy:Pool.Round_robin in
  (* While we have a profiled fleet run in hand, sanity-check that the
     simulator's hot zones actually fired and every frame closed. *)
  let calls z =
    let n = Selfprof.zone_name z in
    match List.find_opt (fun r -> r.Selfprof.r_zone = n) (Selfprof.rows ())
    with
    | Some r -> r.Selfprof.r_calls
    | None -> 0
  in
  Selfprof.disable ();
  Alcotest.(check string) "identical fleet render" off on;
  List.iter
    (fun z ->
      Alcotest.(check bool)
        (Selfprof.zone_name z ^ " fired during fleet run")
        true
        (calls z > 0))
    [ Selfprof.Eq_push; Selfprof.Eq_pop; Selfprof.Pool_route ];
  Alcotest.(check int) "no unwound frames" 0 (Selfprof.unwound ())

let prop_fleet_transparent =
  QCheck.Test.make ~name:"profiler on/off renders byte-identical fleets"
    ~count:10
    QCheck.(
      pair
        (pair (int_range 1 6) (oneofl Pool.all_policies))
        (pair (int_range 1 2) (int_range 0 2)))
    (fun ((count, policy), (slots, queue)) ->
      let render () =
        let clients =
          Sim.make_clients ~stagger_s:0.03
            ~workloads:[ "164.gzip"; "429.mcf" ] ~count ()
        in
        Sim.render
          (Sim.run
             ~config:(fleet_config ~slots ~queue ~servers:2 ~policy)
             clients)
      in
      Selfprof.disable ();
      let off = render () in
      Selfprof.enable ();
      Selfprof.reset ();
      let on = render () in
      Selfprof.disable ();
      String.equal off on)

(* {1 Accounting} *)

let test_disabled_counts_nothing () =
  Selfprof.disable ();
  Selfprof.reset ();
  Selfprof.enter Selfprof.Compress;
  Selfprof.leave Selfprof.Compress;
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Selfprof.r_zone ^ " calls") 0
        r.Selfprof.r_calls;
      Alcotest.(check (float 0.)) (r.Selfprof.r_zone ^ " self-s") 0.
        r.Selfprof.r_self_s)
    (Selfprof.rows ());
  Alcotest.(check int) "unwound" 0 (Selfprof.unwound ())

let test_nested_attribution () =
  Selfprof.enable ();
  Selfprof.reset ();
  Selfprof.enter Selfprof.Sink_emit;
  Selfprof.enter Selfprof.Hist_record;
  Selfprof.leave Selfprof.Hist_record;
  Selfprof.leave Selfprof.Sink_emit;
  Selfprof.disable ();
  let calls name =
    (List.find (fun r -> r.Selfprof.r_zone = name) (Selfprof.rows ()))
      .Selfprof.r_calls
  in
  Alcotest.(check int) "outer counted once" 1 (calls "sink-emit");
  Alcotest.(check int) "inner counted once" 1 (calls "hist-record");
  Alcotest.(check int) "no unwound frames" 0 (Selfprof.unwound ());
  (* Every zone appears in the report even at zero. *)
  let report = Selfprof.report () in
  List.iter
    (fun z ->
      let n = Selfprof.zone_name z in
      Alcotest.(check bool) (n ^ " present in report") true
        (contains report n))
    Selfprof.zones

let test_unwind_tolerance () =
  Selfprof.enable ();
  Selfprof.reset ();
  (* Simulate an exception skipping the inner leave: enter two zones,
     leave only the outer. *)
  Selfprof.enter Selfprof.Compress;
  Selfprof.enter Selfprof.Hist_record;
  Selfprof.leave Selfprof.Compress;
  Selfprof.disable ();
  Alcotest.(check int) "abandoned frame counted" 1 (Selfprof.unwound ());
  (* The stack recovered: a fresh balanced pair adds no more. *)
  Selfprof.enable ();
  Selfprof.enter Selfprof.Eq_push;
  Selfprof.leave Selfprof.Eq_push;
  Selfprof.disable ();
  Alcotest.(check int) "stack recovered" 1 (Selfprof.unwound ())

(* {1 OpenMetrics exposition} *)

let test_openmetrics_bytes () =
  let rows =
    [
      { Selfprof.r_zone = "eq-push"; r_calls = 3; r_self_s = 0.5;
        r_self_words = 128. };
      { Selfprof.r_zone = "compress"; r_calls = 1; r_self_s = 0.25;
        r_self_words = 0. };
    ]
  in
  let out = Openmetrics.of_selfprof ~unwound:2 rows in
  Alcotest.(check bool) "terminated by # EOF" true
    (String.length out >= 6
    && String.sub out (String.length out - 6) 6 = "# EOF\n");
  let expect_line l =
    Alcotest.(check bool) ("contains " ^ l) true (contains out l)
  in
  expect_line {|selfprof_zone_calls_total{zone="eq-push"} 3|};
  expect_line {|selfprof_zone_self_seconds_total{zone="compress"} 0.25|};
  expect_line "selfprof_unwound_frames_total 2";
  (* Byte-stable: same rows, same bytes. *)
  Alcotest.(check string) "deterministic exposition" out
    (Openmetrics.of_selfprof ~unwound:2 rows)

let tests =
  [
    Alcotest.test_case "profiler transparent on sessions" `Slow
      test_session_transparency;
    Alcotest.test_case "profiler transparent on fleet" `Quick
      test_fleet_transparency;
    QCheck_alcotest.to_alcotest prop_fleet_transparent;
    Alcotest.test_case "disabled mode counts nothing" `Quick
      test_disabled_counts_nothing;
    Alcotest.test_case "nested zones attribute innermost" `Quick
      test_nested_attribution;
    Alcotest.test_case "exceptional unwind tolerated" `Quick
      test_unwind_tolerance;
    Alcotest.test_case "openmetrics exposition is byte-stable" `Quick
      test_openmetrics_bytes;
  ]
