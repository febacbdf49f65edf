let () =
  Alcotest.run "native_offloader"
    [
      ("ir", Test_ir.tests);
      ("parser", Test_parser.tests);
      ("layout", Test_layout.tests);
      ("mem", Test_mem.tests);
      ("netsim", Test_netsim.tests);
      ("trace", Test_trace.tests);
      ("trace-equiv", Test_trace_equiv.tests);
      ("obs", Test_obs.tests);
      ("analysis", Test_analysis.tests);
      ("estimator", Test_estimator.tests);
      ("profiler", Test_profiler.tests);
      ("power", Test_power.tests);
      ("transform", Test_transform.tests);
      ("interp", Test_interp.tests);
      ("interp-more", Test_exec_more.tests);
      ("offload", Test_offload.tests);
      ("runtime", Test_runtime.tests);
      ("fault", Test_fault.tests);
      ("sched", Test_sched.tests);
      ("migrate", Test_migrate.tests);
      ("lifecycle", Test_lifecycle.tests);
      ("workloads", Test_workloads.tests);
      ("corpus-report", Test_corpus_report.tests);
      ("telemetry", Test_telemetry.tests);
      ("sampler", Test_sampler.tests);
      ("selfprof", Test_selfprof.tests);
      ("golden", Test_golden.tests);
    ]
