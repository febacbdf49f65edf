(* Estimator tests: Equation 1 arithmetic (including the published
   Table 3 example), target selection with subsumption, and the
   dynamic run-time estimator. *)

module B = No_ir.Builder
module Ty = No_ir.Ty
module Equation = No_estimator.Equation
module Dynamic = No_estimator.Dynamic_estimate
module Predictor = No_estimator.Bandwidth_predictor
module Static = No_estimator.Static_estimate
module Callgraph = No_analysis.Callgraph

(* The paper's Table 3 works Equation 1 with R = 5 and BW = 80 Mbps
   on the chess profile: getAITurn (26 s, 1 invocation... the table
   lists 3 invocations with total time; we reproduce the arithmetic
   on the published numbers). *)
let test_equation_table3_numbers () =
  let mb = 1024 * 1024 in
  (* getAITurn: Tm=26, 12 MB, 3 invocations -> Tideal 20.8, Tc 7.2+,
     gain positive *)
  let b =
    Equation.evaluate
      { Equation.tm_s = 26.0; r = 5.0; mem_bytes = 12 * mb; bw_bps = 80e6;
        invocations = 3 }
  in
  Alcotest.(check (float 0.1)) "Tideal getAITurn" 20.8 b.Equation.ideal_gain_s;
  Alcotest.(check (float 0.2)) "Tc getAITurn" 7.55 b.Equation.comm_cost_s;
  Alcotest.(check bool) "getAITurn profitable" true (b.Equation.gain_s > 0.0);
  (* for_j: same times but 36 invocations -> hugely negative *)
  let worse =
    Equation.evaluate
      { Equation.tm_s = 25.0; r = 5.0; mem_bytes = 12 * mb; bw_bps = 80e6;
        invocations = 36 }
  in
  Alcotest.(check bool) "for_j unprofitable" true (worse.Equation.gain_s < 0.0);
  (* getPlayerTurn: small time, 10 MB, 3 invocations -> negative *)
  let player =
    Equation.evaluate
      { Equation.tm_s = 1.5; r = 5.0; mem_bytes = 10 * mb; bw_bps = 80e6;
        invocations = 3 }
  in
  Alcotest.(check bool) "getPlayerTurn unprofitable" true
    (player.Equation.gain_s < 0.0)

let test_equation_monotonicity () =
  let base =
    { Equation.tm_s = 10.0; r = 5.0; mem_bytes = 1 lsl 20; bw_bps = 10e6;
      invocations = 1 }
  in
  let gain i = (Equation.evaluate i).Equation.gain_s in
  Alcotest.(check bool) "more bandwidth helps" true
    (gain { base with Equation.bw_bps = 100e6 } > gain base);
  Alcotest.(check bool) "more memory hurts" true
    (gain { base with Equation.mem_bytes = 1 lsl 24 } < gain base);
  Alcotest.(check bool) "more invocations hurt" true
    (gain { base with Equation.invocations = 10 } < gain base);
  Alcotest.(check bool) "faster server helps" true
    (gain { base with Equation.r = 10.0 } > gain base);
  (match Equation.evaluate { base with Equation.r = 0.0 } with
  | _ -> Alcotest.fail "expected invalid ratio"
  | exception Invalid_argument _ -> ())

(* Subsumption: if caller and callee are both profitable, only the
   caller is selected. *)
let test_selection_subsumption () =
  let t = B.create "subsume" in
  let _ =
    B.func t "inner" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.ret fb (Some (B.i64 1)))
  in
  let _ =
    B.func t "outer" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.ret fb (Some (B.call fb "inner" [])))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        B.ret fb (Some (B.call fb "outer" [])))
  in
  let m = B.finish t in
  let mk name time =
    {
      Static.row_name = name;
      Static.row_kind = No_profiler.Profiler.Func;
      Static.row_time_s = time;
      Static.row_invocations = 1;
      Static.row_mem_bytes = 4096;
      Static.row_filtered = None;
      Static.row_breakdown =
        Some
          (Equation.evaluate
             { Equation.tm_s = time; r = 5.0; mem_bytes = 4096;
               bw_bps = 50e6; invocations = 1 });
      Static.row_selected = false;
    }
  in
  let result = Static.select m [ mk "outer" 10.0; mk "inner" 9.0 ] in
  Alcotest.(check (list string)) "outer only" [ "outer" ]
    result.Static.targets

let test_dynamic_estimator () =
  let d = Dynamic.create ~r:5.0 ~bw_bps:50e6 in
  Dynamic.seed d ~name:"kernel" ~profile_time_s:10.0;
  let offload name ~mem_bytes =
    (Dynamic.estimate d ~name ~mem_bytes).Dynamic.offload
  in
  Alcotest.(check bool) "small footprint offloads" true
    (offload "kernel" ~mem_bytes:(1 lsl 16));
  Alcotest.(check bool) "huge footprint refuses" false
    (offload "kernel" ~mem_bytes:(1 lsl 30));
  (* bandwidth collapse flips the decision *)
  Dynamic.set_bandwidth d 1e4;
  Alcotest.(check bool) "slow network refuses" false
    (offload "kernel" ~mem_bytes:(1 lsl 16));
  Dynamic.set_bandwidth d 50e6;
  (* a target whose profile saw almost no work *)
  Dynamic.seed d ~name:"cold" ~profile_time_s:0.0001;
  Alcotest.(check bool) "tiny task refuses" false
    (offload "cold" ~mem_bytes:(1 lsl 24));
  (* The estimate is one evaluation of Equation 1 over the seeded Tm,
     with contention scaling R and BW. *)
  let equation ~tm_s ~r ~mem_bytes ~bw_bps =
    (Equation.evaluate
       { Equation.tm_s; r; mem_bytes; bw_bps; invocations = 1 })
      .Equation.gain_s
  in
  let e =
    Dynamic.estimate ~r_factor:0.5 ~bw_factor:0.25 d ~name:"kernel"
      ~mem_bytes:(1 lsl 20)
  in
  Alcotest.(check (float 0.0)) "gain_s is Equation 1's Tg"
    (equation ~tm_s:10.0 ~r:2.5 ~mem_bytes:(1 lsl 20) ~bw_bps:12.5e6)
    e.Dynamic.gain_s;
  Alcotest.(check (float 0.0)) "local_s is the seeded Tm" 10.0
    e.Dynamic.local_s;
  (* forcing overrides the decision, not the estimate *)
  Dynamic.force d (Some true);
  let e = Dynamic.estimate d ~name:"cold" ~mem_bytes:(1 lsl 30) in
  Alcotest.(check bool) "forced offload" true e.Dynamic.offload;
  Alcotest.(check (float 0.0)) "forced modes still estimate"
    (equation ~tm_s:0.0001 ~r:5.0 ~mem_bytes:(1 lsl 30) ~bw_bps:50e6)
    e.Dynamic.gain_s;
  Dynamic.force d (Some false);
  Alcotest.(check bool) "forced local" false (offload "kernel" ~mem_bytes:64)

(* Abrupt mid-session bandwidth collapse: the predictor starts with a
   stale healthy-link belief, learns only from observed transfers, and
   must converge far enough that Equation 1 flips from offload to
   refuse — the paper's "unexpected slow network" scenario driven
   through the NWSLite-style feedback loop rather than configuration. *)
let test_predictor_collapse_flips_decision () =
  let pred = Predictor.create ~initial_bps:80e6 in
  let d = Dynamic.create ~r:5.0 ~bw_bps:(Predictor.predict_bps pred) in
  (* Table 3's getAITurn: Tm = 26 s, 12 MB footprint — comfortably
     profitable at 80 Mbps. *)
  Dynamic.seed d ~name:"getAITurn" ~profile_time_s:26.0;
  let mem = 12 * 1024 * 1024 in
  Alcotest.(check bool) "healthy link offloads" true
    (Dynamic.estimate d ~name:"getAITurn" ~mem_bytes:mem).Dynamic.offload;
  (* The link drops to 1 Mbps; each subsequent transfer is observed at
     the real rate and folded into the belief. *)
  let actual_bps = 1e6 in
  let beliefs = ref [ Predictor.predict_bps pred ] in
  for _ = 1 to 40 do
    let bytes = 256 * 1024 in
    Predictor.observe pred ~bytes
      ~seconds:(float_of_int bytes *. 8.0 /. actual_bps);
    Dynamic.set_bandwidth d (Predictor.predict_bps pred);
    beliefs := Predictor.predict_bps pred :: !beliefs
  done;
  let final = Predictor.predict_bps pred in
  Alcotest.(check bool) "belief converged near the collapsed rate" true
    (final >= 0.8 *. actual_bps && final <= 1.2 *. actual_bps);
  let rec non_increasing = function
    (* newest first: each belief must be <= its predecessor *)
    | a :: (b :: _ as rest) -> a <= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "belief decays monotonically on a one-way collapse"
    true
    (non_increasing !beliefs);
  Alcotest.(check bool) "Equation 1 now refuses" false
    (Dynamic.estimate d ~name:"getAITurn" ~mem_bytes:mem).Dynamic.offload

let tests =
  [
    Alcotest.test_case "equation: table 3 numbers" `Quick
      test_equation_table3_numbers;
    Alcotest.test_case "bandwidth collapse flips decision" `Quick
      test_predictor_collapse_flips_decision;
    Alcotest.test_case "equation: monotonicity" `Quick
      test_equation_monotonicity;
    Alcotest.test_case "selection subsumption" `Quick
      test_selection_subsumption;
    Alcotest.test_case "dynamic estimator" `Quick test_dynamic_estimator;
  ]
