(* offload-cli: command-line driver for the Native Offloader
   reproduction.

     offload-cli list                    workloads and their traits
     offload-cli run 458.sjeng           local vs offloaded comparison
     offload-cli run 458.sjeng --trace out.json --metrics
                                         also capture the fast run's event
                                         stream: Chrome-trace JSON (for
                                         chrome://tracing / Perfetto) and
                                         the event-derived metrics table
     offload-cli report table1 ... fig8  regenerate tables/figures
     offload-cli report ablations        and the design-choice ablations
     offload-cli diff old.jsonl new.jsonl
                                         attribute the cost delta between
                                         two raw traces to span-tree nodes
                                         and event kinds
     offload-cli dump 164.gzip mobile    print partitioned IR
     offload-cli serve --clients 4 --slots 2
                                         multi-client shared-server
                                         scheduling simulation
     offload-cli serve --migrate failover
                                         checkpoint/migrate a task off a
                                         crashing pool member (also:
                                         maintenance, rebalance)
     offload-cli headline                geomean speedups / battery *)

open No_prelude.Prelude
open Cmdliner

let list_cmd =
  let run () =
    let table =
      Table.create ~title:"Workloads (17 SPEC programs + chess)"
        [ "name"; "description"; "paper target"; "paper exec (s)";
          "paper traffic (MB)" ]
    in
    List.iter
      (fun (e : Registry.entry) ->
        Table.add_row table
          [
            e.Registry.e_name;
            e.Registry.e_description;
            e.Registry.e_paper.Registry.pr_target;
            Table.cell_f ~digits:1 e.Registry.e_paper.Registry.pr_exec_s;
            Table.cell_f ~digits:1 e.Registry.e_paper.Registry.pr_traffic_mb;
          ])
      Registry.spec;
    Table.print table
  in
  Cmd.v (Cmd.info "list" ~doc:"List the workloads")
    Term.(const run $ const ())

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM")

let entry_of_name name =
  match Registry.by_name name with
  | Some entry -> entry
  | None ->
    Fmt.epr "unknown program %s; try `offload-cli list'@." name;
    exit 1

let link_of_name name =
  match Link.by_name name with
  | Some link -> link
  | None ->
    Fmt.epr "unknown link %S; available links: %s@." name
      (String.concat ", "
         (List.map (fun (l : Link.t) -> l.Link.name) Link.all));
    exit 1

let fault_plan_of_string text =
  match Fault_plan.parse text with
  | Ok plan -> plan
  | Error msg ->
    Fmt.epr "bad fault plan %S: %s@.expected: %s@." text msg
      Fault_plan.grammar;
    exit 1

(* --self-prof[=FILE], shared by run and serve: profile the
   simulator's own hot paths (zone-based cost accounting) for the
   duration of the command, print the zone table afterwards, and with
   FILE also write the self-profile as OpenMetrics exposition. *)
let self_prof_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "self-prof" ] ~docv:"FILE"
        ~doc:
          "Profile the simulator's own hot paths (event queue, page-fault \
           service, compressor, trace sinks, histograms, pool routing, \
           checkpoints) and print the per-zone cost table after the run; \
           with $(docv), also write the self-profile as OpenMetrics text \
           exposition there.  Profiling never changes simulated results.")

let self_prof_begin = function
  | None -> ()
  | Some _ ->
    Selfprof.enable ();
    Selfprof.reset ()

let self_prof_end = function
  | None -> ()
  | Some out ->
    Selfprof.disable ();
    print_newline ();
    print_string (Selfprof.report ());
    if not (String.equal out "") then begin
      (match
         Openmetrics.write_selfprof out ~unwound:(Selfprof.unwound ())
           (Selfprof.rows ())
       with
      | exception Sys_error msg ->
        Fmt.epr "cannot write self-profile: %s@." msg;
        exit 1
      | () -> ());
      Fmt.pr "wrote %s (self-profile OpenMetrics)@." out
    end

(* Re-run a configuration with capture sinks attached (the simulator
   is deterministic, so this reproduces the corresponding sweep run
   exactly) and export/print what was asked for. *)
let traced_run entry (compiled : Compiler.compiled) ~config ~label ~trace_file
    ~trace_raw ~metrics ~metrics_out =
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let series = Series.create () in
  let config =
    { config with
      Session.trace =
        Trace.fan_out [ Trace.Ring.sink ring; Series.sink series ] }
  in
  let run, _report =
    Experiment.offloaded_run ~label:"traced" ~config compiled entry
  in
  let m = Option.get run.Experiment.run_metrics in
  (match trace_file with
  | None -> ()
  | Some file ->
    let json =
      Trace.Chrome.export ~process:("offload:" ^ entry.Registry.e_name)
        (Trace.Ring.events ring)
    in
    (match open_out_bin file with
    | exception Sys_error msg ->
      Fmt.epr "cannot write trace: %s@." msg;
      exit 1
    | oc ->
      output_string oc json;
      close_out oc);
    Fmt.pr "wrote %s (%d events%s) — load it in chrome://tracing or Perfetto@."
      file (Trace.Ring.length ring)
      (if Trace.Ring.dropped ring > 0 then
         Printf.sprintf ", %d dropped" (Trace.Ring.dropped ring)
       else ""));
  (match trace_raw with
  | None -> ()
  | Some file ->
    if Trace.Ring.dropped ring > 0 then
      Fmt.epr
        "warning: capture ring dropped %d events; the raw trace is partial@."
        (Trace.Ring.dropped ring);
    (match Trace_file.save file (Trace.Ring.events ring) with
    | exception Sys_error msg ->
      Fmt.epr "cannot write raw trace: %s@." msg;
      exit 1
    | () ->
      Fmt.pr "wrote %s (%d events) — feed it to `offload-cli analyze'@." file
        (Trace.Ring.length ring)));
  (match metrics_out with
  | None -> ()
  | Some file -> (
    match Openmetrics.write file ~series m with
    | exception Sys_error msg ->
      Fmt.epr "cannot write metrics: %s@." msg;
      exit 1
    | () ->
      Fmt.pr "wrote %s (OpenMetrics text, windowed at %gs) — scrape or diff \
              it@."
        file (Series.window_s series)));
  if metrics then
    Table.print
      (Metrics_report.table
         ~title:(entry.Registry.e_name ^ ": " ^ label ^ " run metrics \
                 (event-stream derived)")
         m)

let run_cmd =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome-trace JSON of the fast-network run to $(docv) \
             (loadable in chrome://tracing or Perfetto).")
  in
  let trace_raw_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-raw" ] ~docv:"FILE.jsonl"
          ~doc:
            "Persist the run's raw event stream as line-per-event JSON \
             (versioned header + one event per line), the input format of \
             $(b,offload-cli analyze).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the event-derived metrics table of the fast-network run.")
  in
  let link_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "link" ] ~docv:"NAME"
          ~doc:
            "Link profile for the fault-injected run (default 802.11ac); \
             unknown names list the available links.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Deterministic fault plan for an extra fault-injected run, e.g. \
             $(b,outage=0.5:2.0,drop=0.05,crash=3.5,seed=7). On server loss \
             the runtime rolls back and replays locally; the run must still \
             match the local console output.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's metrics and windowed time series as \
             OpenMetrics/Prometheus text exposition to $(docv).")
  in
  let run name trace_file trace_raw metrics metrics_out link faults
      self_prof =
    let entry = entry_of_name name in
    (* Validate the fault-run options before the (slow) sweep. *)
    let faulty_config =
      if faults = None && link = None then None
      else begin
        let plan =
          match faults with
          | Some text -> fault_plan_of_string text
          | None -> Fault_plan.empty
        in
        let link =
          match link with
          | Some name -> link_of_name name
          | None -> Link.fast_wifi
        in
        Some
          { (Session.default_config ~link ()) with
            Session.faults = Some plan }
      end
    in
    self_prof_begin self_prof;
    let res = Experiment.run_entry entry in
    let table =
      Table.create ~title:(name ^ ": local vs offloaded")
        [ "config"; "exec (s)"; "speedup"; "energy (mJ)"; "offloads";
          "refusals"; "faults"; "to server (KB)"; "to mobile (KB)" ]
    in
    let row (r : Experiment.run) =
      Table.add_row table
        [
          r.Experiment.run_label;
          Table.cell_f r.Experiment.run_exec_s;
          Table.cell_f (Experiment.speedup res r);
          Table.cell_f ~digits:0 r.Experiment.run_energy_mj;
          Table.cell_i r.Experiment.run_offloads;
          Table.cell_i r.Experiment.run_refusals;
          Table.cell_i r.Experiment.run_faults;
          Table.cell_i (r.Experiment.run_bytes_to_server / 1024);
          Table.cell_i (r.Experiment.run_bytes_to_mobile / 1024);
        ]
    in
    row res.Experiment.pres_local;
    row res.Experiment.pres_slow;
    row res.Experiment.pres_fast;
    row res.Experiment.pres_ideal;
    Table.print table;
    let identical =
      String.equal res.Experiment.pres_local.Experiment.run_console
        res.Experiment.pres_fast.Experiment.run_console
    in
    Fmt.pr "console output identical to local run: %b@." identical;
    (* Optional fault-injected run: same workload, chosen link, under a
       deterministic fault plan. *)
    (match faulty_config with
    | None -> ()
    | Some config ->
      let frun, report =
        Experiment.offloaded_run ~label:"fault-injected" ~config
          res.Experiment.pres_compiled entry
      in
      let survived =
        String.equal res.Experiment.pres_local.Experiment.run_console
          frun.Experiment.run_console
      in
      Fmt.pr "@.fault-injected run (link %s, plan %a):@."
        config.Session.link.Link.name Fault_plan.pp
        (Option.get config.Session.faults);
      Fmt.pr "  exec %.2f s (local %.2f s)  offloads %d  fallbacks %d  \
              timeouts %d  retries %d  recovery %.2f s@."
        frun.Experiment.run_exec_s
        res.Experiment.pres_local.Experiment.run_exec_s
        frun.Experiment.run_offloads report.Session.rep_fallbacks
        report.Session.rep_rpc_timeouts report.Session.rep_retries
        report.Session.rep_recovery_s;
      Fmt.pr "  survived (console identical to local): %b@." survived);
    if trace_file <> None || trace_raw <> None || metrics
       || metrics_out <> None
    then begin
      let config, label =
        match faulty_config with
        | Some config -> (config, "fault-injected")
        | None -> (Experiment.fast_config (), "fast-network")
      in
      traced_run entry res.Experiment.pres_compiled ~config ~label ~trace_file
        ~trace_raw ~metrics ~metrics_out
    end;
    self_prof_end self_prof
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload in all configurations")
    Term.(
      const run $ name_arg $ trace_arg $ trace_raw_arg $ metrics_arg
      $ metrics_out_arg $ link_arg $ faults_arg $ self_prof_arg)

let report_cmd =
  let what_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("table1", `T1); ("table2", `T2); ("table3", `T3);
                  ("table4", `T4); ("table5", `T5); ("fig6a", `F6a);
                  ("fig6b", `F6b); ("fig7", `F7); ("fig8", `F8);
                  ("ablations", `Abl); ("all", `All) ]))
          None
      & info [] ~docv:"WHAT")
  in
  let run what =
    let tables = function
      | `T1 -> [ Evaluation.table1 () ]
      | `T2 -> [ Evaluation.table2 () ]
      | `T3 -> [ Evaluation.table3 () ]
      | `T4 -> [ Evaluation.table4 () ]
      | `T5 -> [ Evaluation.table5 () ]
      | `F6a -> [ Evaluation.fig6a () ]
      | `F6b -> [ Evaluation.fig6b () ]
      | `F7 -> [ Evaluation.fig7 () ]
      | `F8 -> [ Evaluation.fig8 () ]
      | `Abl -> Evaluation.ablations ()
      | `All -> assert false
    in
    (* Tables one blank line apart. *)
    let emit w =
      List.iteri
        (fun i t ->
          if i > 0 then print_newline ();
          Table.print t)
        (tables w)
    in
    match what with
    | `All ->
      List.iter
        (fun w ->
          emit w;
          print_newline ())
        [ `T1; `T2; `T3; `T4; `T5; `F6a; `F6b; `F7; `F8; `Abl ]
    | w -> emit w
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate a table or figure from the paper, or the ablations")
    Term.(const run $ what_arg)

let dump_cmd =
  let part_arg =
    Arg.(
      value
      & pos 1
          (enum
             [ ("original", `Original); ("mobile", `Mobile);
               ("server", `Server) ])
          `Mobile
      & info [] ~docv:"PART")
  in
  let run name part =
    let compiled = Compiler.compile_entry (entry_of_name name) in
    let modul =
      match part with
      | `Original -> compiled.Compiler.c_original
      | `Mobile -> compiled.Compiler.c_output.Pipeline.o_mobile
      | `Server -> compiled.Compiler.c_output.Pipeline.o_server
    in
    Fmt.pr "%s@." (Pretty.modul_to_string modul)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a workload's IR (original/mobile/server)")
    Term.(const run $ name_arg $ part_arg)

(* Compile and run a program written in the textual IR syntax: the
   front-end-independent path of Figure 1 (any producer of IR text can
   feed the offloader). *)
let load_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ir")
  in
  let input_arg =
    Arg.(value & pos 1 int 20_000 & info [] ~docv:"INPUT")
  in
  let run file input =
    let text =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let script value = [ No_exec.Console.In_int (Int64.of_int value) ] in
    let fail fmt =
      Fmt.kstr (fun msg -> Fmt.epr "%s: %s@." file msg; exit 1) fmt
    in
    match
      let compiled =
        Compiler.compile ~profile_script:(script (max 1 (input / 10)))
          ~eval_scale:10.0 (No_ir.Parser.parse text)
      in
      Fmt.pr "selected targets: %a@."
        Fmt.(list ~sep:comma string)
        compiled.Compiler.c_selection.No_estimator.Static_estimate.targets;
      let local =
        No_runtime.Local_run.run ~script:(script input)
          compiled.Compiler.c_original
      in
      let session =
        No_runtime.Session.create
          ~config:(No_runtime.Session.default_config ())
          ~script:(script input) compiled.Compiler.c_output
          ~seeds:compiled.Compiler.c_seeds
      in
      (local, No_runtime.Session.run session)
    with
    | local, report ->
      Fmt.pr "local:     %6.2f s   %s" local.No_runtime.Local_run.lr_total_s
        local.No_runtime.Local_run.lr_console;
      Fmt.pr "offloaded: %6.2f s   %s" report.No_runtime.Session.rep_total_s
        report.No_runtime.Session.rep_console;
      Fmt.pr "speedup %.2fx, identical output: %b@."
        (local.No_runtime.Local_run.lr_total_s
        /. report.No_runtime.Session.rep_total_s)
        (String.equal local.No_runtime.Local_run.lr_console
           report.No_runtime.Session.rep_console)
    | exception No_ir.Parser.Parse_error (line, msg) ->
      Fmt.epr "%s:%d: %s@." file line msg;
      exit 1
    | exception No_ir.Validate.Ill_typed msg -> fail "%s" msg
    | exception Compiler.No_profitable_target _ ->
      fail "no function is worth offloading"
    (* Run-time faults of a program that validates: the profiling run,
       the local run and the offloaded run all execute it. *)
    | exception (No_exec.Interp.Trap msg | No_exec.Value.Type_trap msg) ->
      fail "trap: %s" msg
    | exception No_mem.Memory.Bad_access (addr, why) ->
      fail "bad access at 0x%x: %s" addr why
    | exception No_mem.Uva.Invalid_free addr -> fail "invalid free of 0x%x" addr
    | exception No_mem.Uva.Out_of_memory size ->
      fail "out of memory allocating %d bytes" size
    | exception No_exec.Console.Input_exhausted ->
      fail "input exhausted: the program reads more than INPUT"
    | exception No_exec.Fs.No_such_file name -> fail "no such file %S" name
    | exception No_exec.Fs.Bad_fd fd -> fail "bad file descriptor %d" fd
    | exception No_mem.Stack_alloc.Stack_overflow_uva size ->
      fail "stack overflow allocating %d bytes" size
    | exception Stack_overflow -> fail "stack overflow: recursion too deep"
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Compile and offload a program from a textual IR file")
    Term.(const run $ file_arg $ input_arg)

(* Post-hoc analysis of a raw trace written by `run --trace-raw`:
   span tree, per-kind latency histograms, estimator audit, optional
   collapsed-stack flamegraph export.  Pure function of the file, so
   re-analyzing the same capture is byte-identical. *)
let analyze_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.jsonl")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Write a collapsed-stack flamegraph ($(b,a;b;c weight) lines, \
             microsecond weights) to $(docv) — loadable in speedscope or \
             flamegraph.pl.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the analysis as JSON to $(docv): per-kind histogram \
             quantiles, the estimator audit table and its summary.")
  in
  (* Per-kind cost distributions: which events feed which histogram,
     and how to print that histogram's values.  Each time histogram is
     one of [Trace.latency_names] and holds what [Trace.latency]
     charges. *)
  let hist_specs :
      (string * int * (Trace.event -> float option)) list =
    let charged label kind =
      let slot =
        Option.get (List.find_index (String.equal kind) Trace.latency_names)
      in
      ( label, 6,
        fun ev ->
          if Trace.latency_slot ev = slot then Some (Trace.latency ev)
          else None )
    in
    [
      charged "offload span (s)" "offload-span";
      charged "page-fault service (s)" "page-fault";
      charged "flush transfer+codec (s)" "flush";
      ( "flush wire (bytes)", 0,
        function
        | Trace.Flush { wire_bytes; _ } -> Some (float_of_int wire_bytes)
        | _ -> None );
      charged "remote-io cost (s)" "remote-io";
      charged "fnptr translate (s)" "fnptr-translate";
      charged "rpc-timeout wait (s)" "rpc-timeout";
      charged "retry backoff (s)" "retry-backoff";
      charged "local replay (s)" "replay";
      charged "queue wait (s)" "queue-wait";
      charged "migrate transfer (s)" "migrate-transfer";
    ]
  in
  (* Machine-readable twin of the printed tables: per-kind histogram
     quantiles plus the estimator audit, one JSON document.  Pure
     function of the trace, so re-analyzing is byte-identical. *)
  let analysis_json ~hists ~sampled ~exemplars ~rows events =
    let b = Buffer.create 2048 in
    let jf = Trace.json_float in
    Buffer.add_string b
      (Printf.sprintf "{\n  \"events\": %d,\n  \"histograms\": ["
         (List.length events));
    List.iteri
      (fun i (name, _digits, h) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "\n    {\"kind\": %s, \"count\": %d, \"sum\": %s, \
              \"min\": %s, \"p50\": %s, \"p90\": %s, \"p95\": %s, \
              \"p99\": %s, \"max\": %s}"
             (Trace.json_string name) (Hist.count h) (jf (Hist.sum h))
             (jf (Hist.min h))
             (jf (Hist.quantile h 0.50))
             (jf (Hist.quantile h 0.90))
             (jf (Hist.quantile h 0.95))
             (jf (Hist.quantile h 0.99))
             (jf (Hist.max h))))
      hists;
    Buffer.add_string b "\n  ],";
    Buffer.add_string b
      (Printf.sprintf "\n  \"sampled\": %b,\n  \"exemplars\": [" sampled);
    List.iteri
      (fun i (name, _digits, id, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "\n    {\"kind\": %s, \"trace\": %s, \"value\": %s}"
             (Trace.json_string name) (Trace.json_string id) (jf v)))
      exemplars;
    Buffer.add_string b "\n  ],\n  \"audit\": [";
    List.iteri
      (fun i (r : Audit.row) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "\n    {\"ts_s\": %s, \"target\": %s, \"decision\": \"%s\", \
              \"predicted_gain_s\": %s, \"measured_gain_s\": %s, \
              \"proxied\": %b, \"verdict\": \"%s\"}"
             (jf r.Audit.a_ts) (Trace.json_string r.Audit.a_target)
             (if r.Audit.a_decision then "offload" else "refuse")
             (jf r.Audit.a_predicted_gain_s)
             (match r.Audit.a_measured_gain_s with
             | Some g -> jf g
             | None -> "null")
             r.Audit.a_proxied
             (Audit.verdict_to_string r.Audit.a_verdict)))
      rows;
    Buffer.add_string b "\n  ]";
    (if rows <> [] then begin
       let s = Audit.summarize rows in
       Buffer.add_string b
         (Printf.sprintf
            ",\n  \"audit_summary\": {\"estimates\": %d, \"true_pos\": %d, \
             \"false_pos\": %d, \"true_neg\": %d, \"false_neg\": %d, \
             \"unverified\": %d, \"mean_abs_err_s\": %s, \
             \"mean_rel_err\": %s}"
            s.Audit.s_estimates s.Audit.s_true_pos s.Audit.s_false_pos
            s.Audit.s_true_neg s.Audit.s_false_neg s.Audit.s_unverified
            (jf s.Audit.s_mean_abs_err_s)
            (jf s.Audit.s_mean_rel_err))
     end);
    Buffer.add_string b "\n}\n";
    Buffer.contents b
  in
  let run file flame json =
    match Trace_file.load_traces file with
    | Error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 1
    | Ok (tagged, sampled) ->
      let events = List.map (fun (ts, ev, _) -> (ts, ev)) tagged in
      let kept_ids =
        List.sort_uniq compare (List.filter_map (fun (_, _, id) -> id) tagged)
      in
      (* Per kind, the worst-valued event that carries a kept-trace
         tag: the file-level twin of the histogram exemplars the live
         series exposes through OpenMetrics. *)
      let exemplars =
        List.filter_map
          (fun (name, digits, select) ->
            List.fold_left
              (fun acc (_ts, ev, id) ->
                match (id, select ev) with
                | Some id, Some v -> (
                  match acc with
                  | Some (_, _, _, best) when best >= v -> acc
                  | _ -> Some (name, digits, id, v))
                | _ -> acc)
              None tagged)
          hist_specs
      in
      let root = Span.of_events ~sampled events in
      Fmt.pr "span tree (%d events%s):@.@.%s@." (List.length events)
        (if sampled then
           Printf.sprintf ", sampled: %d kept traces, gaps not attributed"
             (List.length kept_ids)
         else "")
        (Flame.to_text root);
      (* Each non-empty histogram and the audit, built once: the
         tables below and the JSON both read them. *)
      let hists =
        List.filter_map
          (fun (name, digits, select) ->
            let h = Hist.create () in
            List.iter
              (fun (_ts, ev) -> Option.iter (Hist.add h) (select ev))
              events;
            if Hist.count h > 0 then Some (name, digits, h) else None)
          hist_specs
      in
      let rows = Audit.of_events events in
      let table =
        Table.create ~title:"Cost distributions (log-bucketed histograms)"
          [ "kind"; "count"; "sum"; "min"; "p50"; "p90"; "p95"; "p99"; "max" ]
      in
      List.iter
        (fun (name, digits, h) ->
          Table.add_row table
            [
              name;
              Table.cell_i (Hist.count h);
              Table.cell_f ~digits (Hist.sum h);
              Table.cell_f ~digits (Hist.min h);
              Table.cell_f ~digits (Hist.quantile h 0.50);
              Table.cell_f ~digits (Hist.quantile h 0.90);
              Table.cell_f ~digits (Hist.quantile h 0.95);
              Table.cell_f ~digits (Hist.quantile h 0.99);
              Table.cell_f ~digits (Hist.max h);
            ])
        hists;
      Table.print table;
      if exemplars <> [] then begin
        print_newline ();
        let table =
          Table.create ~title:"Exemplars (worst kept trace per kind)"
            [ "kind"; "trace"; "value" ]
        in
        List.iter
          (fun (name, digits, id, v) ->
            Table.add_row table [ name; id; Table.cell_f ~digits v ])
          exemplars;
        Table.print table
      end;
      if rows <> [] then begin
        let table =
          Table.create ~title:"Estimator audit (predicted vs measured gain)"
            [ "ts (s)"; "target"; "decision"; "predicted (s)"; "measured (s)";
              "abs err (s)"; "verdict" ]
        in
        List.iter
          (fun (r : Audit.row) ->
            let measured, err =
              match r.Audit.a_measured_gain_s with
              | Some g ->
                ( Table.cell_f ~digits:4 g
                  ^ (if r.Audit.a_proxied then "*" else ""),
                  Table.cell_f ~digits:4
                    (abs_float (r.Audit.a_predicted_gain_s -. g)) )
              | None -> ("-", "-")
            in
            Table.add_row table
              [
                Table.cell_f ~digits:4 r.Audit.a_ts;
                r.Audit.a_target;
                (if r.Audit.a_decision then "offload" else "refuse");
                Table.cell_f ~digits:4 r.Audit.a_predicted_gain_s;
                measured;
                err;
                Audit.verdict_to_string r.Audit.a_verdict;
              ])
          rows;
        print_newline ();
        Table.print table;
        let s = Audit.summarize rows in
        Fmt.pr "(* = measured via same-target proxy)@.";
        Fmt.pr
          "estimates %d: TP %d  FP %d  TN %d  FN %d  unverified %d@."
          s.Audit.s_estimates s.Audit.s_true_pos s.Audit.s_false_pos
          s.Audit.s_true_neg s.Audit.s_false_neg s.Audit.s_unverified;
        if not (Float.is_nan s.Audit.s_mean_abs_err_s) then
          Fmt.pr "mean gain error: %.4f s absolute, %.1f%% relative@."
            s.Audit.s_mean_abs_err_s (100.0 *. s.Audit.s_mean_rel_err)
      end;
      (match flame with
      | None -> ()
      | Some out -> (
        match open_out_bin out with
        | exception Sys_error msg ->
          Fmt.epr "cannot write flamegraph: %s@." msg;
          exit 1
        | oc ->
          output_string oc (Flame.to_collapsed root);
          close_out oc;
          Fmt.pr "@.wrote %s — load it in speedscope or flamegraph.pl@." out));
      (match json with
      | None -> ()
      | Some out -> (
        match open_out_bin out with
        | exception Sys_error msg ->
          Fmt.epr "cannot write analysis JSON: %s@." msg;
          exit 1
        | oc ->
          output_string oc
            (analysis_json ~hists ~sampled ~exemplars ~rows events);
          close_out oc;
          Fmt.pr "@.wrote %s (histogram quantiles + estimator audit)@." out))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze a raw trace (from $(b,run --trace-raw)): span tree, \
          latency histograms, estimator audit")
    Term.(const run $ file_arg $ flame_arg $ json_arg)

(* Multi-client scheduling: N staggered mobile hosts share one server
   with K worker slots and a bounded FIFO admission queue.  The
   simulation is a deterministic discrete-event interleaving, so the
   same arguments always print the same table. *)
let serve_cmd =
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N"
          ~doc:"Number of concurrent mobile clients sharing the server.")
  in
  let slots_arg =
    Arg.(
      value & opt int 2
      & info [ "slots" ] ~docv:"K"
          ~doc:"Server worker slots (concurrent offloads served).")
  in
  let queue_arg =
    Arg.(
      value & opt int 1
      & info [ "queue" ] ~docv:"Q"
          ~doc:
            "FIFO admission queue capacity; requests that would wait \
             behind $(docv) queued offloads are rejected and replayed \
             locally.")
  in
  let servers_arg =
    Arg.(
      value & opt int 1
      & info [ "servers" ] ~docv:"K"
          ~doc:
            "Independent offload servers in the pool, each with its own \
             worker slots and admission queue.")
  in
  let policy_arg =
    Arg.(
      value & opt string "round-robin"
      & info [ "policy" ] ~docv:"NAME"
          ~doc:
            "Routing policy placing each admission request on a pool \
             member: $(b,round-robin), $(b,least-loaded) or $(b,sticky) \
             (client hashed to a fixed server).")
  in
  let workloads_arg =
    Arg.(
      value
      & opt (list string) [ "164.gzip" ]
      & info [ "workloads" ] ~docv:"LIST"
          ~doc:
            "Comma-separated workload names assigned to clients \
             round-robin (see $(b,offload-cli list)).")
  in
  let stagger_arg =
    Arg.(
      value & opt float 0.02
      & info [ "stagger" ] ~docv:"S"
          ~doc:"Seconds between successive client start times.")
  in
  let link_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "link" ] ~docv:"NAME"
          ~doc:"Link profile shared by all clients (default 802.11ac).")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Deterministic fault plan applied to every client (each \
             client gets a distinct derived seed), e.g. \
             $(b,outage=0.5:2.0,drop=0.05,seed=7).")
  in
  let eval_arg =
    Arg.(
      value & flag
      & info [ "eval" ]
          ~doc:
            "Run workloads at evaluation scale instead of the (much \
             faster) profile scale.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the fleet-wide metrics and windowed time series (every \
             client's events on the global clock) as OpenMetrics text \
             exposition to $(docv).")
  in
  let migrate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "migrate" ] ~docv:"SCENARIO"
          ~doc:
            "Run a canonical migration scenario instead of the synthetic \
             fleet: $(b,failover) (a member crashes mid-offload and the \
             task fails over), $(b,maintenance) (rolling drains across the \
             pool), or $(b,rebalance) (the fast member of a heterogeneous \
             pool is drained mid-run).  Honours $(b,--policy); other fleet \
             options are ignored.")
  in
  let no_migrate_arg =
    Arg.(
      value & flag
      & info [ "no-migrate" ]
          ~doc:
            "Disable checkpoint/migrate recovery: a lost server always \
             rolls the task back and replays it locally.")
  in
  let slo_arg =
    Arg.(
      value
      & opt string Slo.default_spec
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "Service-level objectives evaluated over the fleet-wide \
             windowed series, e.g. \
             $(b,avail>=0.99,p99(page-fault)<=50ms,burn(0.99)<=14).")
  in
  let sample_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "sample" ] ~docv:"BUDGET"
          ~doc:
            "Tail-based trace sampling: keep every faulted, migrated and \
             SLO-violating task plus a seeded $(docv) fraction (0..1) of \
             the routine rest, and report the kept set, per-reason \
             counts and the SLO incident timeline.  Ignored with \
             $(b,--migrate).")
  in
  let sample_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "sample-seed" ] ~docv:"N"
          ~doc:
            "Seed for the budget leg of the sampling decision; reruns \
             with the same seed keep a byte-identical set.")
  in
  let incidents_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "incidents-out" ] ~docv:"FILE"
          ~doc:
            "Write the SLO incident timeline (one JSON object per \
             incident) to $(docv).  Requires $(b,--sample).")
  in
  let sample_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sample-out" ] ~docv:"FILE"
          ~doc:
            "Write the kept traces as a sampled raw-trace file (header \
             flagged $(b,\"sampled\":true), every event line tagged with \
             its kept-trace id) readable by $(b,offload-cli analyze).  \
             Requires $(b,--sample).")
  in
  let run clients slots queue servers policy workloads stagger link faults
      eval metrics_out migrate no_migrate slo sample sample_seed
      incidents_out sample_out self_prof =
    if clients < 1 then begin
      Fmt.epr "need at least one client@.";
      exit 1
    end;
    if slots < 1 then begin
      Fmt.epr "need at least one worker slot@.";
      exit 1
    end;
    if servers < 1 then begin
      Fmt.epr "need at least one server@.";
      exit 1
    end;
    if queue < 0 then begin
      Fmt.epr "--queue must be at least 0@.";
      exit 1
    end;
    if not (Float.is_finite stagger && stagger >= 0.0) then begin
      Fmt.epr "--stagger must be a finite number of seconds >= 0@.";
      exit 1
    end;
    if workloads = [] then begin
      Fmt.epr "--workloads needs at least one workload name@.";
      exit 1
    end;
    let policy =
      match Pool.policy_of_string policy with
      | Some p -> p
      | None ->
        Fmt.epr "unknown policy %s (try: %s)@." policy
          (String.concat ", "
             (List.map Pool.policy_to_string Pool.all_policies));
        exit 1
    in
    let objectives =
      match Slo.parse slo with
      | Ok objs -> objs
      | Error msg ->
        Fmt.epr "bad --slo spec: %s@.(grammar: %s)@." msg Slo.grammar;
        exit 1
    in
    (match sample with
    | None when incidents_out <> None || sample_out <> None ->
      Fmt.epr "--incidents-out and --sample-out require --sample@.";
      exit 1
    | Some b when not (b >= 0.0 && b <= 1.0) ->
      Fmt.epr "--sample budget must be within [0,1]@.";
      exit 1
    | _ -> ());
    (* Every run streams its events, on the global clock, into one
       live windowed series: the SLO line, the incident timeline and
       --metrics-out all read it, and no client keeps a trace. *)
    let series = Series.create () in
    let streaming config =
      { config with
        Sim.s_record_events = false;
        Sim.s_global_sink = Some (Series.sink series) }
    in
    let print_slo () =
      let verdicts = Slo.evaluate objectives series in
      Fmt.pr "%s@." (Slo.render verdicts);
      Fmt.pr "SLO (%s): %s@."
        (Pool.policy_to_string policy)
        (if Slo.pass verdicts then "pass" else "FAIL")
    in
    self_prof_begin self_prof;
    (match migrate with
    | Some scenario_name ->
      let sc =
        match
          Sim.scenario ~policy ~migrate:(not no_migrate) scenario_name
        with
        | sc -> sc
        | exception Invalid_argument msg ->
          Fmt.epr "%s@." msg;
          exit 1
      in
      let result =
        Sim.run ~config:(streaming sc.Sim.sc_config) sc.Sim.sc_clients
      in
      print_endline
        (Sim.render
           ~title:
             (Printf.sprintf "%s: %s%s" sc.Sim.sc_name sc.Sim.sc_title
                (if no_migrate then " (migration disabled)" else ""))
           result);
      print_slo ()
    | None ->
    List.iter
      (fun name -> ignore (entry_of_name name : Registry.entry))
      workloads;
    let plan = Option.map fault_plan_of_string faults in
    (* With --sample, the sampler's exemplar hook attaches kept-trace
       ids to the same windows the SLO incident timeline is detected
       over. *)
    let sampling =
      Option.map
        (fun budget ->
          ( budget,
            Trace.Sampler.create ~slo_limit_s:(Slo.span_limit_s objectives)
              ~exemplar:(Series.add_exemplar series)
              ~keep:(fun ~client ~task ->
                Rng.task_keep
                  ~seed:(Int64.of_int sample_seed)
                  ~client ~task ~budget)
              () ))
        sample
    in
    let config =
      streaming
      { Sim.default_config with
        Sim.s_load =
          { Server_load.default with Server_load.slots;
            Server_load.queue_cap = queue };
        Sim.s_servers = servers;
        Sim.s_policy = policy;
        Sim.s_link =
          (match link with
          | Some name -> link_of_name name
          | None -> Link.fast_wifi);
        Sim.s_scale = (if eval then Sim.Eval else Sim.Profile);
        Sim.s_migrate = not no_migrate;
        Sim.s_sampler = Option.map snd sampling }
    in
    let cs =
      Sim.make_clients ~stagger_s:stagger ?faults:plan ~workloads
        ~count:clients ()
    in
    let result = Sim.run ~config cs in
    print_endline
      (Sim.render
         ~title:
           (Printf.sprintf "%d client(s), %d server(s) x %d slots, queue %d, %s"
              clients servers slots queue (Pool.policy_to_string policy))
         result);
    print_slo ();
    (match sampling with
    | None -> ()
    | Some (budget, sampler) ->
      Fmt.pr
        "sampling budget %g (seed %d): kept %d/%d tasks (%s), rows %d/%d, \
         peak buffered rows %d@."
        budget sample_seed
        (Trace.Sampler.kept sampler)
        (Trace.Sampler.tasks sampler)
        (String.concat ", "
           (List.map
              (fun (r, n) -> Printf.sprintf "%s %d" r n)
              (Trace.Sampler.reasons sampler)))
        (Trace.Sampler.rows_kept sampler)
        (Trace.Sampler.rows_seen sampler)
        (Trace.Sampler.buffered_rows_peak sampler);
      let incidents = Incident.detect objectives series in
      Fmt.pr "incident timeline:@.%s@." (Incident.render incidents);
      Option.iter
        (fun path ->
          match Incident.save path incidents with
          | exception Sys_error msg ->
            Fmt.epr "cannot write incidents: %s@." msg;
            exit 1
          | () ->
            Fmt.pr "wrote %s (incident timeline jsonl, %d incidents)@." path
              (List.length incidents))
        incidents_out;
      Option.iter
        (fun path ->
          match Trace_file.save_traces path (Trace.Sampler.kept_traces sampler)
          with
          | exception Sys_error msg ->
            Fmt.epr "cannot write sampled trace: %s@." msg;
            exit 1
          | () ->
            Fmt.pr "wrote %s (sampled raw trace, %d kept tasks)@." path
              (Trace.Sampler.kept sampler))
        sample_out);
    (match metrics_out with
    | None -> ()
    | Some file -> (
      match Openmetrics.write file ~series (Series.totals series) with
      | exception Sys_error msg ->
        Fmt.epr "cannot write metrics: %s@." msg;
        exit 1
      | () ->
        Fmt.pr "wrote %s (OpenMetrics text, %d clients merged)@." file
          clients)));
    self_prof_end self_prof
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulate N clients against a pool of K servers (worker slots, \
          FIFO queues, routing policy, load-aware offload decisions)")
    Term.(
      const run $ clients_arg $ slots_arg $ queue_arg $ servers_arg
      $ policy_arg $ workloads_arg $ stagger_arg $ link_arg $ faults_arg
      $ eval_arg $ metrics_out_arg $ migrate_arg $ no_migrate_arg
      $ slo_arg $ sample_arg $ sample_seed_arg $ incidents_out_arg
      $ sample_out_arg $ self_prof_arg)

(* Regression attribution between two raw traces (from `run
   --trace-raw`): align the span trees by path, attribute the
   wall-clock delta to nodes and event kinds.  Diffing a capture
   against itself reports zero everywhere and exits 0 — the CI smoke
   invariant. *)
let diff_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.jsonl")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.jsonl")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the report as JSON to $(docv) (consumed by \
             scripts/bench_guard.py --explain).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Number of node rows to print (ranked by |self delta|).")
  in
  let load_or_die file =
    match Trace_file.load file with
    | Ok events -> events
    | Error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 1
  in
  let run old_file new_file json top_n =
    let report =
      Diff.compare_events (load_or_die old_file) (load_or_die new_file)
    in
    print_string (Diff.render ~top_n report);
    match json with
    | None -> ()
    | Some out -> (
      match open_out_bin out with
      | exception Sys_error msg ->
        Fmt.epr "cannot write diff JSON: %s@." msg;
        exit 1
      | oc ->
        output_string oc (Diff.to_json ~top_n report);
        close_out oc;
        Fmt.pr "wrote %s@." out)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Attribute the cost delta between two raw traces to span-tree \
          nodes and event kinds")
    Term.(const run $ old_arg $ new_arg $ json_arg $ top_arg)

let headline_cmd =
  let run () =
    let h = Evaluation.headline () in
    Fmt.pr "geomean speedup (fast network): %.2fx (paper: 6.42x)@."
      h.Evaluation.h_geomean_speedup_fast;
    Fmt.pr "geomean speedup (slow network): %.2fx@."
      h.Evaluation.h_geomean_speedup_slow;
    Fmt.pr "geomean battery saving (fast):  %.1f%% (paper: 82.0%%)@."
      h.Evaluation.h_battery_saving_fast_pct;
    Fmt.pr "geomean battery saving (slow):  %.1f%% (paper: 77.2%%)@."
      h.Evaluation.h_battery_saving_slow_pct
  in
  Cmd.v
    (Cmd.info "headline" ~doc:"Geomean speedup and battery saving")
    Term.(const run $ const ())

let () =
  let info = Cmd.info "offload-cli" ~doc:"Native Offloader reproduction" in
  exit (Cmd.eval (Cmd.group info
    [ list_cmd; run_cmd; report_cmd; dump_cmd; load_cmd; analyze_cmd;
      diff_cmd; serve_cmd; headline_cmd ]))
