(* The trace-analysis layer, end to end.

     dune exec examples/profile_report.exe

   458.sjeng (profile scale) runs once with a ring-buffer sink
   attached, and everything below is derived from that single captured
   event stream — nothing re-instruments the run.  The stream is
   persisted to a versioned line-per-event JSON file and read back
   (the round trip is bit-exact), folded into a causal span tree whose
   root equals the run's wall clock, bucketed into latency histograms,
   and audited: every Equation-1 prediction is held against the
   measured outcome of that same decision.  A collapsed-stack
   flamegraph lands next to the trace file.

   The second half repeats the exercise on 164.gzip under a bandwidth
   collapse that starts before the first offload decision: the
   estimator prices the transfer at nominal bandwidth, offloads, and
   the audit catches the false positive. *)

open No_prelude.Prelude

let compile name =
  let entry = Option.get (Registry.by_name name) in
  let compiled = Compiler.compile_entry entry in
  (entry, compiled)

(* One run with a ring sink: its events, and the session's ledger of
   every row it emitted. *)
let traced_run ?faults (entry : Registry.entry) compiled =
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let config =
    { (Session.default_config ()) with
      Session.trace = Trace.Ring.sink ring;
      Session.faults }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  ignore (Session.run session : Session.report);
  (Trace.Ring.events ring, Session.ledger session)

let print_audit rows =
  let table =
    Table.create ~title:"Estimator audit: prediction vs. measurement"
      [ "t (s)"; "target"; "decision"; "predicted (s)"; "measured (s)";
        "verdict" ]
  in
  List.iter
    (fun (r : Audit.row) ->
      Table.add_row table
        [
          Printf.sprintf "%.3f" r.Audit.a_ts;
          r.Audit.a_target;
          (if r.Audit.a_decision then "offload" else "refuse");
          Table.cell_f r.Audit.a_predicted_gain_s;
          (match r.Audit.a_measured_gain_s with
          | None -> "-"
          | Some g ->
            Printf.sprintf "%.4f%s" g (if r.Audit.a_proxied then "*" else ""));
          Audit.verdict_to_string r.Audit.a_verdict;
        ])
    rows;
  Table.print table;
  let s = Audit.summarize rows in
  Fmt.pr "verdicts: %d TP, %d FP, %d TN, %d FN, %d unverified@."
    s.Audit.s_true_pos s.Audit.s_false_pos s.Audit.s_true_neg
    s.Audit.s_false_neg s.Audit.s_unverified;
  if s.Audit.s_estimates - s.Audit.s_unverified > 0 then
    Fmt.pr "mean gain error: %.4f s (%.1f%% relative)@."
      s.Audit.s_mean_abs_err_s
      (100.0 *. s.Audit.s_mean_rel_err)

let () =
  (* 1. Capture one run and persist the raw stream. *)
  let entry, compiled = compile "458.sjeng" in
  let events, ledger = traced_run entry compiled in
  let trace_path = Filename.temp_file "profile_report" ".jsonl" in
  Trace_file.save trace_path events;
  let reloaded =
    match Trace_file.load trace_path with
    | Ok evs -> evs
    | Error msg -> failwith ("reload failed: " ^ msg)
  in
  assert (reloaded = events);
  Fmt.pr "captured %d events over %.3f simulated seconds -> %s@."
    (List.length events) (Trace.Metrics.total_s ledger) trace_path;
  Fmt.pr "(reloading the file reproduces the event list bit-exactly)@.@.";

  (* 2. Fold the stream into a span tree.  Self times make the tree an
     accounting identity: the root's total is the wall clock, and every
     node's children + self equals its total. *)
  let root = Span.of_events events in
  Fmt.pr "Where the %.3f s went:@.@.%s@." root.Span.total_s
    (Flame.to_text root);

  (* 3. Latency histograms over the same stream. *)
  let offload = Hist.create () and transfer = Hist.create () in
  List.iter
    (fun (_, ev) ->
      match ev with
      | Trace.Offload_end { span_s; _ } -> Hist.add offload span_s
      | Trace.Flush { transfer_s; codec_s; _ } ->
        Hist.add transfer (transfer_s +. codec_s)
      | _ -> ())
    events;
  let table =
    Table.create ~title:"Latency distributions"
      [ "event"; "n"; "p50 (s)"; "p95 (s)"; "p99 (s)"; "max (s)" ]
  in
  let hist_row name h =
    if Hist.count h > 0 then
      Table.add_row table
        [
          name;
          string_of_int (Hist.count h);
          Table.cell_f (Hist.quantile h 0.50);
          Table.cell_f (Hist.quantile h 0.95);
          Table.cell_f (Hist.quantile h 0.99);
          Table.cell_f (Hist.max h);
        ]
  in
  hist_row "offload span" offload;
  hist_row "flush (link + codec)" transfer;
  Table.print table;
  Fmt.pr "@.";

  (* 4. Audit the estimator against what actually happened. *)
  print_audit (Audit.of_events events);
  let flame_path = Filename.chop_suffix trace_path ".jsonl" ^ ".folded" in
  let oc = open_out flame_path in
  output_string oc (Flame.to_collapsed root);
  close_out oc;
  Fmt.pr "@.collapsed flamegraph -> %s (open in speedscope.app)@." flame_path;

  (* 5. Same audit, hostile conditions: 164.gzip moves real data, and a
     bandwidth collapse active from t=0 means the first decision is
     priced at nominal bandwidth.  The offload goes ahead, measures
     slower than local, and the audit flags the false positive; the
     bandwidth predictor then reprices later decisions. *)
  Fmt.pr "@.--- 164.gzip under a bandwidth collapse (x0.01 from t=0) ---@.@.";
  let entry, compiled = compile "164.gzip" in
  let faults =
    match Fault_plan.parse "collapse=0.0:0.01,seed=7" with
    | Ok p -> Some p
    | Error msg -> failwith msg
  in
  let events, _ = traced_run ?faults entry compiled in
  print_audit (Audit.of_events events);
  Fmt.pr
    "@.The estimator believed the nominal link; the wire did not \
     cooperate.  The@.audit is how you find out which predictions to \
     stop trusting.@."
