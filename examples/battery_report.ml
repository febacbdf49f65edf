(* Battery behaviour of an offloaded run (the Figure 8 view).

     dune exec examples/battery_report.exe

   Runs 458.sjeng offloaded over the fast network and prints its power
   timeline, read off the session's ledger: the three think()
   invocations appear as transmit/receive spikes around long low-power
   waits — exactly the Figure 8(a) shape — followed by the per-state
   energy budget. *)

open No_prelude.Prelude

let bar mw =
  let width = int_of_float (mw /. 100.0) in
  String.make (min width 60) '#'

let () =
  let entry = Option.get (Registry.by_name "458.sjeng") in
  let compiled = Compiler.compile_entry entry in
  let session =
    Session.create
      ~config:(Session.default_config ())
      ~script:entry.Registry.e_eval_script ~files:entry.Registry.e_files
      compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  let report = Session.run session in
  let ledger = Session.ledger session in
  let model = Power_model.galaxy_s5 ~fast_radio:true in
  Fmt.pr "458.sjeng offloaded over 802.11ac: %.2f s, %.0f mJ, %d offloads@.@."
    report.Session.rep_total_s report.Session.rep_energy_mj
    report.Session.rep_offloads;

  Fmt.pr "--- power over time (each row = 1/48 of the run) ---@.";
  let samples =
    Trace.Metrics.resample_power ledger
      ~period_s:(report.Session.rep_total_s /. 48.0)
      ~idle_mw:(Power_model.draw_mw model Power_model.Idle)
  in
  List.iter
    (fun (t, mw) -> Fmt.pr "%7.2fs %5.0f mW %s@." t mw (bar mw))
    samples;

  Fmt.pr "@.--- time and energy by state ---@.";
  let by_state =
    List.filter_map
      (fun state ->
        let name = Power_model.state_to_string state in
        let seconds = Trace.Metrics.time_in_state ledger name in
        if seconds > 0.0 then
          Some (name, seconds, Power_model.draw_mw model state)
        else None)
      Power_model.
        [ Idle; Computing; Waiting; Receiving; Transmitting;
          Remote_io_service ]
  in
  List.iter
    (fun (name, seconds, mw) ->
      Fmt.pr "  %-12s %7.2f s  %8.0f mJ@." name seconds (mw *. seconds))
    (List.sort (fun (_, a, _) (_, b, _) -> compare b a) by_state);

  (* Compare with staying local. *)
  let local =
    Local_run.run ~script:entry.Registry.e_eval_script
      ~files:entry.Registry.e_files compiled.Compiler.c_original
  in
  Fmt.pr "@.local execution would draw %.0f mJ -> offloading saves %.1f%%@."
    local.Local_run.lr_energy_mj
    (100.0
    *. (1.0 -. (report.Session.rep_energy_mj /. local.Local_run.lr_energy_mj)))
