(* The repository benchmark.

     dune exec ./benchmark/run.exe -- [--workload NAME] [--seed N]
       [--seconds S] [--trace 0|1] [--trace-out FILE] [--smoke]

   With --workload, runs that workload in this process: at least three
   set-ups (their median is setup_s), then at least three timed passes
   and until S seconds have passed, then the workload's untimed checks.  The last line of
   standard output is one JSON object: {"correct", "attempted",
   "failed", "metrics"}, where the metrics are the end-to-end ones, or
   with --trace 1 the per-layer ones, measured on one more, traced pass
   (written as Chrome trace-event JSON to --trace-out, if given).
   Without --workload, runs every workload strictly one after another,
   each in a fresh child process, and merges their trace files.

   Times are host CPU seconds of the process (see Tracer).  --smoke
   shrinks every workload (2 programs, 200 clients, 1 round, 1 set-up,
   1 pass) for the smoke test. *)

module Selfprof = No_selfprof.Selfprof

type options = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  smoke : bool;
}

let usage =
  "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-out FILE] [--smoke]\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let fail_usage msg =
  prerr_endline ("run.exe: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args argv =
  let number flag conv v =
    match conv v with Some x -> x | None -> fail_usage (flag ^ ": bad value " ^ v)
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest ->
      if List.exists (fun w -> w.Workloads.name = v) Workloads.all then
        go { o with workload = Some v } rest
      else fail_usage ("unknown workload " ^ v)
    | "--seed" :: v :: rest -> go { o with seed = number "--seed" int_of_string_opt v } rest
    | "--seconds" :: v :: rest ->
      go { o with seconds = number "--seconds" float_of_string_opt v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace-out" :: v :: rest -> go { o with trace_out = Some v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | arg :: _ -> fail_usage ("unexpected argument " ^ arg)
  in
  go
    { workload = None; seed = 1; seconds = 12.0; trace = false;
      trace_out = None; smoke = false }
    (List.tl (Array.to_list argv))

(* {1 Statistics} *)

(* Quartiles as Python's statistics.quantiles(n=4) gives them
   (exclusive method); the median for fewer than two samples. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let at p =
    if n = 1 then a.(0)
    else
      let m = p *. float_of_int (n + 1) in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
  in
  let median =
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  (at 0.25, median, at 0.75)

let median xs =
  let _, m, _ = quartiles xs in
  m

let ratio a b = if b > 0.0 then a /. b else 0.0

(* {1 Metric declarations} *)

(* The deterministic model outputs every workload reports (see
   Workloads.finish). *)
let exact_units =
  [
    ("speedup_err_pct", "%");
    ("battery_err_pp", "pp");
    ("sim_p50_s", "sim_s");
    ("sim_p99_s", "sim_s");
    ("sim_recovery_x", "x");
  ]

(* Per-layer metrics of the traced pass. *)
let per_layer ~all ~root ~untraced_pass_s ~alloc_words ~major_gcs =
  let in_pass = Tracer.descendants all root in
  let sum ?(config = fun _ -> true) name =
    List.fold_left
      (fun acc (s : Tracer.span) ->
        if s.Tracer.name = name && config s.Tracer.config then
          acc +. Tracer.duration s
        else acc)
      0.0 in_pass
  in
  let rows = Selfprof.rows () in
  let zone_row z =
    List.find (fun r -> r.Selfprof.r_zone = Selfprof.zone_name z) rows
  in
  let zone z = (zone_row z).Selfprof.r_self_s in
  let c = Tracer.count_of in
  let runs config = sum ~config:(String.equal config) "Session.run" in
  let faulted = function
    | "outage" | "crash" | "drop" | "collapse" -> true
    | _ -> false
  in
  let local_s = sum "Local_run.run" in
  let pass_s = Tracer.duration root in
  [
    ("exec.local_s", "s", local_s);
    ("exec.local_minstr_per_s", "Minstr/s", ratio (c "exec.instrs" /. 1e6) local_s);
    ("exec.instrs", "count", c "exec.instrs");
    ("profiler.profile_s", "s", sum "Compiler.profile");
    ("analysis.filter_s", "s", sum "Filter.analyze");
    ("estimator.select_s", "s", sum "Static_estimate.run");
    ("estimator.targets", "count", c "estimator.targets");
    ("transform.pipeline_s", "s", sum "Pipeline.run");
    ("transform.server_fns", "count", c "transform.server_fns");
    ("runtime.create_s", "s", sum "Session.create");
    ("runtime.run_slow_s", "s", runs "slow");
    ("runtime.run_fast_s", "s", runs "fast" +. runs "clean");
    ("runtime.run_ideal_s", "s", runs "ideal");
    ("runtime.run_faulted_s", "s", sum ~config:faulted "Session.run");
    ("runtime.offloads", "count", c "runtime.offloads");
    ("runtime.refusals", "count", c "runtime.refusals");
    ("runtime.fnptr_translations", "count", c "runtime.fnptr_translations");
    ("runtime.remote_io_ops", "count", c "runtime.remote_io_ops");
    ("mem.page_fault_s", "s", zone Selfprof.Page_fault);
    ("mem.page_faults", "count", c "mem.page_faults");
    ("mem.prefetched_pages", "count", c "mem.prefetched_pages");
    ("netsim.compress_s", "s", zone Selfprof.Compress);
    ("netsim.decompress_s", "s", zone Selfprof.Decompress);
    ( "netsim.compress_mb_per_s",
      "MB/s",
      ratio (c "netsim.bytes_to_mobile" /. 1e6) (zone Selfprof.Compress) );
    ("netsim.bytes_to_server", "count", c "netsim.bytes_to_server");
    ("netsim.bytes_to_mobile", "count", c "netsim.bytes_to_mobile");
    ("netsim.wire_bytes_to_mobile", "count", c "netsim.wire_bytes_to_mobile");
    ("sched.sim_run_s", "s", sum "Sim.run");
    ("sched.eq_push_s", "s", zone Selfprof.Eq_push);
    ("sched.eq_pop_s", "s", zone Selfprof.Eq_pop);
    ("sched.pool_route_s", "s", zone Selfprof.Pool_route);
    ("sched.wakeups", "count", float_of_int (zone_row Selfprof.Eq_pop).Selfprof.r_calls);
    ("sched.queued", "count", c "sched.queued");
    ("sched.rejects", "count", c "sched.rejects");
    ("sched.local_flips", "count", c "sched.local_flips");
    ( "sched.admit_frac",
      "ratio",
      ratio (c "sched.admits") (c "sched.admits" +. c "sched.rejects") );
    ("trace.sink_emit_s", "s", zone Selfprof.Sink_emit);
    ("trace.encode_s", "s", sum "Trace_file.to_string");
    ("trace.decode_s", "s", sum "Trace_file.of_string");
    ( "trace.encode_mb_per_s",
      "MB/s",
      ratio (c "trace.bytes" /. 1e6) (sum "Trace_file.to_string") );
    ( "trace.decode_mb_per_s",
      "MB/s",
      ratio (c "trace.bytes" /. 1e6) (sum "Trace_file.of_string") );
    ("trace.events", "count", c "trace.events");
    ("trace.bytes", "count", c "trace.bytes");
    ("obs.span_tree_s", "s", sum "Span.of_events");
    ("obs.audit_s", "s", sum "Audit.of_events");
    ("obs.flame_s", "s", sum "Flame.to_collapsed");
    ("obs.series_s", "s", sum "Series.of_events");
    ("obs.slo_s", "s", sum "Slo.evaluate");
    ("obs.hist_record_s", "s", zone Selfprof.Hist_record);
    ("fault.runs", "count", c "fault.runs");
    ("fault.retries", "count", c "fault.retries");
    ("fault.rpc_timeouts", "count", c "fault.rpc_timeouts");
    ("fault.fallbacks", "count", c "fault.fallbacks");
    ( "fault.replay_frac",
      "ratio",
      ratio (c "fault.fallbacks") (c "fault.fallbacks" +. c "migrate.migrations_done") );
    ("migrate.scenario_s", "s", sum ~config:(fun k -> k <> "fleet") "Sim.run");
    ("migrate.checkpoint_s", "s", zone Selfprof.Checkpoint);
    ("migrate.checkpoints", "count", c "migrate.checkpoints");
    ("migrate.migrations_done", "count", c "migrate.migrations_done");
    ("gc.alloc_mw", "Mwords", alloc_words /. 1e6);
    ("gc.major_gcs", "count", float_of_int major_gcs);
    ("bench.unattributed_s", "s", Tracer.self_s all root);
    ("bench.trace_overhead_pct", "%", 100.0 *. (ratio pass_s untraced_pass_s -. 1.0));
  ]

(* {1 One workload, in this process} *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!Check.failed = 0 && !Check.attempted > 0)
    !Check.attempted !Check.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          metrics))

(* One timed pass: its CPU and wall time. *)
type pass = { cpu_s : float; wall_s : float; result : Workloads.pass_result }

let run_workload o name =
  (* The workload's place in the list is its process id in the trace. *)
  let w, pid =
    List.find
      (fun (w, _) -> w.Workloads.name = name)
      (List.mapi (fun i w -> (w, i + 1)) Workloads.all)
  in
  Tracer.workload := name;
  Tracer.on := o.trace;
  (* At least three set-ups, and cheap ones repeated until they add up
     to a quarter second, so the median of a set-up of a few
     milliseconds is not one noisy sample.  A traced run does not
     report setup_s and sets up once. *)
  let setup_times = ref [] in
  let prepared = ref None in
  let rec set_up i =
    Tracer.pass := Printf.sprintf "setup-%d" i;
    let t0 = Sys.time () in
    let p =
      Tracer.span ~layer:"bench" "setup" (fun () ->
          w.Workloads.setup ~seed:o.seed ~smoke:o.smoke)
    in
    setup_times := (Sys.time () -. t0) :: !setup_times;
    prepared := Some p;
    let spent = List.fold_left ( +. ) 0.0 !setup_times in
    if (not (o.smoke || o.trace)) && (i < 3 || spent < 0.25) then
      set_up (i + 1)
  in
  set_up 1;
  let p = Option.get !prepared in
  Printf.printf "== %s (seed %d): %s\n%!" name o.seed p.Workloads.summary;
  (* Timed, untraced passes: at least three, so the median is not the
     mean of two samples. *)
  let min_passes = if o.smoke || o.trace then 1 else 3 in
  Tracer.on := false;
  let start = Unix.gettimeofday () in
  let rec measure acc =
    Tracer.pass := Printf.sprintf "pass-%d" (List.length acc + 1);
    let c0 = Sys.time () and w0 = Unix.gettimeofday () in
    let r = p.Workloads.pass () in
    let pass =
      { cpu_s = Sys.time () -. c0; wall_s = Unix.gettimeofday () -. w0; result = r }
    in
    let enough =
      List.length acc + 1 >= min_passes
      && (o.smoke || Unix.gettimeofday () -. start >= o.seconds)
    in
    if enough then
      List.rev (pass :: acc)
    else measure (pass :: acc)
  in
  let passes = measure [] in
  let first = (List.hd passes).result in
  List.iter
    (fun p ->
      Check.expect "digest differs between passes"
        (p.result.Workloads.digest = first.Workloads.digest))
    passes;
  let p25, pass_s, p75 = quartiles (List.map (fun p -> p.cpu_s) passes) in
  (* One more pass, traced, with the Selfprof zones on. *)
  let traced =
    if not o.trace then None
    else begin
      Tracer.on := true;
      Tracer.pass := "traced";
      Hashtbl.reset Tracer.counts;
      Selfprof.reset ();
      Selfprof.enable ();
      let words0 = Selfprof.allocated_words () in
      let majors0 = (Gc.quick_stat ()).Gc.major_collections in
      let r = Tracer.span ~layer:"bench" "pass" p.Workloads.pass in
      let alloc_words = Selfprof.allocated_words () -. words0 in
      let major_gcs = (Gc.quick_stat ()).Gc.major_collections - majors0 in
      Selfprof.disable ();
      Tracer.on := false;
      Check.expect "traced pass digest differs"
        (r.Workloads.digest = first.Workloads.digest);
      Some (alloc_words, major_gcs)
    end
  in
  p.Workloads.verify ();
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let runs_per_s = ratio (float_of_int first.Workloads.runs) pass_s in
  let setup_s = median !setup_times in
  Printf.printf "  %-18s %12.6f s       lower   median of %d set-ups\n"
    "setup_s" setup_s (List.length !setup_times);
  Printf.printf
    "  %-18s %12.6f s       lower   median of %d passes, p25 %.6f, p75 %.6f; \
     wall median %.6f s\n"
    "pass_s" pass_s (List.length passes) p25 p75
    (median (List.map (fun p -> p.wall_s) passes));
  Printf.printf "  %-18s %12.4f 1/s     higher  %d runs per pass\n" "runs_per_s"
    runs_per_s first.Workloads.runs;
  Printf.printf "  %-18s %12.3f MB      lower   Gc top_heap_words\n"
    "peak_heap_mb" peak_heap_mb;
  Printf.printf "  %-18s %12.6f         lower   %d failed of %d attempted\n"
    "failed_frac"
    (ratio (float_of_int !Check.failed) (float_of_int !Check.attempted))
    !Check.failed !Check.attempted;
  List.iter
    (fun (n, v, note) ->
      Printf.printf "  %-18s %12.6f %-7s lower   exact; %s\n" n v
        (List.assoc n exact_units) note)
    first.Workloads.exact;
  List.iter (fun m -> Printf.printf "  FAILED: %s\n" m) (List.rev !Check.messages);
  Printf.printf "digest %s %s\n" name first.Workloads.digest;
  match traced with
  | None ->
    print_result
      ([
         ("setup_s", "s", setup_s);
         ("pass_s", "s", pass_s);
         ("runs_per_s", "1/s", runs_per_s);
         ("peak_heap_mb", "MB", peak_heap_mb);
       ]
      @ List.map
          (fun (n, v, _) -> (n, List.assoc n exact_units, v))
          first.Workloads.exact)
  | Some (alloc_words, major_gcs) ->
    let all = Tracer.spans () in
    let root =
      List.find
        (fun (s : Tracer.span) -> s.Tracer.pass = "traced" && s.Tracer.parent = 0)
        all
    in
    let traced_s = Tracer.duration root in
    Printf.printf "per-layer self time, traced pass (CPU s):\n";
    List.iter
      (fun (layer, s) ->
        Printf.printf "  %-14s %10.6f  %5.1f %%\n" layer s
          (100.0 *. ratio s traced_s))
      (Tracer.self_table all root);
    Printf.printf "  %-14s %10.6f\n" "total" traced_s;
    Printf.printf "tracing overhead: traced pass %.6f s vs untraced median %.6f s (%+.2f %%)\n"
      traced_s pass_s
      (100.0 *. (ratio traced_s pass_s -. 1.0));
    Option.iter
      (fun path ->
        Tracer.write_chrome path
          (Tracer.chrome_events ~pid))
      o.trace_out;
    print_result
      (per_layer ~all ~root ~untraced_pass_s:pass_s ~alloc_words ~major_gcs)

(* {1 Every workload, one child process each} *)

(* The event lines of a file written by [Tracer.write_chrome]. *)
let chrome_event_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         l <> "" && l <> Tracer.chrome_header && l <> Tracer.chrome_footer)
  |> List.map (fun l ->
         if String.ends_with ~suffix:"," l then
           String.sub l 0 (String.length l - 1)
         else l)

let run_all o =
  let part name = Option.map (fun f -> f ^ "." ^ name) o.trace_out in
  let run_child name =
    let args =
      [ "--workload"; name; "--seed"; string_of_int o.seed; "--seconds";
        Printf.sprintf "%g" o.seconds; "--trace"; (if o.trace then "1" else "0") ]
      @ (match part name with Some f -> [ "--trace-out"; f ] | None -> [])
      @ if o.smoke then [ "--smoke" ] else []
    in
    let ic =
      Unix.open_process_args_in Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
    in
    let last = ref "" in
    (try
       while true do
         let line = input_line ic in
         print_endline line;
         last := line
       done
     with End_of_file -> ());
    Unix.close_process_in ic = Unix.WEXITED 0
    && String.starts_with ~prefix:"{\"correct\": true" !last
  in
  let ok =
    List.for_all Fun.id
      (List.map (fun w -> run_child w.Workloads.name) Workloads.all)
  in
  Option.iter
    (fun path ->
      let parts =
        List.filter_map (fun w -> part w.Workloads.name) Workloads.all
        |> List.filter Sys.file_exists
      in
      Tracer.write_chrome path (List.concat_map chrome_event_lines parts);
      List.iter Sys.remove parts;
      Printf.printf "wrote %s\n" path)
    o.trace_out;
  Printf.printf "all workloads: %s\n" (if ok then "correct" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  let o = parse_args Sys.argv in
  match o.workload with
  | Some name -> run_workload o name
  | None -> run_all o
