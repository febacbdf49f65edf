(* Workload suite tests: every one of the 17 SPEC-like programs
   builds, validates, runs on its profiling input, selects the
   expected Table 4 target, and (for a representative cheap subset)
   produces identical output when offloaded. *)

module Ir = No_ir.Ir
module Validate = No_ir.Validate
module Filter = No_analysis.Filter
module Static_estimate = No_estimator.Static_estimate
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment

(* Each workload gets its own test case so failures name the
   program. *)
let per_workload_case (entry : Registry.entry) =
  Alcotest.test_case entry.Registry.e_name `Quick (fun () ->
      let m = entry.Registry.e_build () in
      Validate.check_module m;
      (* the profiling input runs to completion and prints something *)
      let local =
        Local_run.run ~script:entry.Registry.e_profile_script
          ~files:entry.Registry.e_files m
      in
      Alcotest.(check bool) "produces output" true
        (String.length local.Local_run.lr_console > 0);
      Alcotest.(check bool) "takes time" true (local.Local_run.lr_total_s > 0.0);
      (* compilation selects exactly the paper's targets *)
      let compiled = Compiler.compile_entry entry in
      Alcotest.(check (slist string String.compare))
        "selected targets"
        entry.Registry.e_expected_targets
        compiled.Compiler.c_selection.Static_estimate.targets;
      (* main is always filtered (it reads the workload parameters) *)
      Alcotest.(check bool) "main filtered" true
        (not (Filter.is_offloadable compiled.Compiler.c_verdicts "main")))

let offload_case name =
  Alcotest.test_case (name ^ " offload correctness") `Quick (fun () ->
      let entry = Option.get (Registry.by_name name) in
      let compiled = Compiler.compile_entry entry in
      let local =
        Local_run.run ~script:entry.Registry.e_eval_script
          ~files:entry.Registry.e_files compiled.Compiler.c_original
      in
      let _, report =
        Experiment.offloaded_run ~config:(Session.default_config ()) compiled
          entry
      in
      Alcotest.(check string) "console identical" local.Local_run.lr_console
        report.Session.rep_console;
      Alcotest.(check bool) "offloaded" true (report.Session.rep_offloads > 0);
      Alcotest.(check bool) "faster than local" true
        (report.Session.rep_total_s < local.Local_run.lr_total_s))

(* Trait checks on specific programs. *)
let test_gobmk_traits () =
  let entry = Option.get (Registry.by_name "445.gobmk") in
  let compiled = Compiler.compile_entry entry in
  let stats = compiled.Compiler.c_output.No_transform.Pipeline.o_stats in
  Alcotest.(check bool) "fn ptr maps inserted" true
    (stats.No_transform.Pipeline.st_fnptr_load_maps > 0);
  Alcotest.(check bool) "remote io sites" true
    (stats.No_transform.Pipeline.st_remote_io_sites > 0)

let test_ammp_two_targets () =
  let entry = Option.get (Registry.by_name "188.ammp") in
  let compiled = Compiler.compile_entry entry in
  Alcotest.(check int) "two targets" 2
    (List.length compiled.Compiler.c_selection.Static_estimate.targets)

let test_sjeng_three_invocations () =
  let entry = Option.get (Registry.by_name "458.sjeng") in
  let compiled = Compiler.compile_entry entry in
  let _, report =
    Experiment.offloaded_run ~config:(Session.default_config ()) compiled entry
  in
  Alcotest.(check int) "three offload invocations" 3
    report.Session.rep_offloads;
  Alcotest.(check bool) "fn ptr translations" true
    (report.Session.rep_fnptr_translations > 1000)

let test_twolf_remote_input () =
  let entry = Option.get (Registry.by_name "300.twolf") in
  let compiled = Compiler.compile_entry entry in
  let _, report =
    Experiment.offloaded_run ~config:(Session.default_config ()) compiled entry
  in
  Alcotest.(check bool) "remote input ops" true
    (report.Session.rep_remote_io_ops >= 16);
  Alcotest.(check bool) "remote io time visible" true
    (report.Session.rep_remote_io_s > 0.0)

let tests =
  List.map per_workload_case Registry.spec
  @ [
      offload_case "456.hmmer";
      offload_case "175.vpr";
      offload_case "462.libquantum";
      Alcotest.test_case "gobmk traits" `Quick test_gobmk_traits;
      Alcotest.test_case "ammp two targets" `Quick test_ammp_two_targets;
      Alcotest.test_case "sjeng three invocations" `Quick
        test_sjeng_three_invocations;
      Alcotest.test_case "twolf remote input" `Quick test_twolf_remote_input;
    ]
