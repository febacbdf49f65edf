(* Power model and battery accounting tests. *)

module Power_model = No_power.Power_model
module Battery = No_power.Battery
module Metrics = No_trace.Trace.Metrics

let model = Power_model.galaxy_s5 ~fast_radio:true

(* A battery whose Power_state rows fold into a fresh [Metrics]. *)
let metered () =
  let m = Metrics.create () in
  (Battery.create ~sink:(Metrics.sink m) model, m)

let test_power_levels () =
  (* The levels Section 5.2 reports. *)
  Alcotest.(check (float 1.0)) "idle" 300.0
    (Power_model.draw_mw model Power_model.Idle);
  Alcotest.(check (float 1.0)) "waiting" 1350.0
    (Power_model.draw_mw model Power_model.Waiting);
  Alcotest.(check (float 1.0)) "receiving" 2000.0
    (Power_model.draw_mw model Power_model.Receiving);
  Alcotest.(check bool) "transmit in 2000..5000" true
    (let tx = Power_model.draw_mw model Power_model.Transmitting in
     tx >= 2000.0 && tx <= 5000.0);
  (* the slow radio draws ~1700 mW for remote I/O, the fast ~2000 *)
  let slow = Power_model.galaxy_s5 ~fast_radio:false in
  Alcotest.(check (float 1.0)) "remote io fast" 2000.0
    (Power_model.draw_mw model Power_model.Remote_io_service);
  Alcotest.(check (float 1.0)) "remote io slow" 1700.0
    (Power_model.draw_mw slow Power_model.Remote_io_service)

let test_battery_integration () =
  let b, m = metered () in
  Battery.spend b ~from_s:0.0 ~to_s:2.0 Power_model.Computing;
  Battery.spend b ~from_s:2.0 ~to_s:3.0 Power_model.Waiting;
  let expected =
    (2.0 *. Power_model.draw_mw model Power_model.Computing) +. 1350.0
  in
  Alcotest.(check (float 0.01)) "energy mJ" expected (Battery.energy_mj b);
  Alcotest.(check int) "two segments" 2
    (List.length (Metrics.power_segments m));
  (* zero-length segments are dropped *)
  Battery.spend b ~from_s:3.0 ~to_s:3.0 Power_model.Idle;
  Alcotest.(check int) "still two" 2
    (List.length (Metrics.power_segments m));
  (match Battery.spend b ~from_s:5.0 ~to_s:4.0 Power_model.Idle with
  | () -> Alcotest.fail "expected negative duration error"
  | exception Invalid_argument _ -> ())

let test_battery_resample () =
  let b, m = metered () in
  Battery.spend b ~from_s:0.0 ~to_s:1.0 Power_model.Computing;
  Battery.spend b ~from_s:1.0 ~to_s:2.0 Power_model.Transmitting;
  let samples =
    Metrics.resample_power m ~period_s:0.5
      ~idle_mw:(Power_model.draw_mw model Power_model.Idle)
  in
  Alcotest.(check int) "5 samples over 2s" 5 (List.length samples);
  let mw_at t =
    match List.find_opt (fun (time, _) -> abs_float (time -. t) < 1e-9) samples with
    | Some (_, mw) -> mw
    | None -> Alcotest.failf "no sample at %f" t
  in
  Alcotest.(check (float 1.0)) "computing at 0.5"
    (Power_model.draw_mw model Power_model.Computing) (mw_at 0.5);
  Alcotest.(check (float 1.0)) "transmitting at 1.5"
    (Power_model.draw_mw model Power_model.Transmitting) (mw_at 1.5)

let test_time_by_state () =
  let b, m = metered () in
  Battery.spend b ~from_s:0.0 ~to_s:1.0 Power_model.Computing;
  Battery.spend b ~from_s:1.0 ~to_s:4.0 Power_model.Waiting;
  Battery.spend b ~from_s:4.0 ~to_s:5.0 Power_model.Computing;
  let time state =
    Metrics.time_in_state m (Power_model.state_to_string state)
  in
  Alcotest.(check (float 1e-9)) "computing 2s" 2.0
    (time Power_model.Computing);
  Alcotest.(check (float 1e-9)) "waiting 3s" 3.0 (time Power_model.Waiting)

let tests =
  [
    Alcotest.test_case "power levels" `Quick test_power_levels;
    Alcotest.test_case "battery integration" `Quick test_battery_integration;
    Alcotest.test_case "battery resample" `Quick test_battery_resample;
    Alcotest.test_case "time by state" `Quick test_time_by_state;
  ]
