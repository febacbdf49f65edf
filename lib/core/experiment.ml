(* Evaluation driver: runs one workload in the paper's configurations
   (local baseline, offloaded over the slow and fast networks, ideal
   offloading) and derives the Figure 6 / Figure 7 quantities.

   "All the execution times and battery consumption were averaged
   over five runs" in the paper; our simulator is deterministic, so a
   single run per configuration suffices. *)

module Ir = No_ir.Ir
module Link = No_netsim.Link
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Registry = No_workloads.Registry
module Trace = No_trace.Trace

(* One configuration's outcome, in comparable units. *)
type run = {
  run_label : string;
  run_exec_s : float;
  run_energy_mj : float;
  run_console : string;
  run_offloads : int;
  run_refusals : int;
  run_faults : int;
  run_bytes_to_server : int;
  run_bytes_to_mobile : int;
  run_server_span_s : float;     (* wall time inside offloads *)
  run_metrics : Trace.Metrics.t option;
      (* the session's ledger; None for local runs *)
}

type program_result = {
  pres_entry : Registry.entry;
  pres_compiled : Compiler.compiled;
  pres_local : run;
  pres_slow : run;
  pres_fast : run;
  pres_ideal : run;
}

let run_of_local label (r : Local_run.report) : run =
  {
    run_label = label;
    run_exec_s = r.Local_run.lr_total_s;
    run_energy_mj = r.Local_run.lr_energy_mj;
    run_console = r.Local_run.lr_console;
    run_offloads = 0;
    run_refusals = 0;
    run_faults = 0;
    run_bytes_to_server = 0;
    run_bytes_to_mobile = 0;
    run_server_span_s = 0.0;
    run_metrics = None;
  }

let run_of_session ~metrics label (r : Session.report) : run =
  {
    run_label = label;
    run_exec_s = r.Session.rep_total_s;
    run_energy_mj = r.Session.rep_energy_mj;
    run_console = r.Session.rep_console;
    run_offloads = r.Session.rep_offloads;
    run_refusals = r.Session.rep_refusals;
    run_faults = r.Session.rep_faults;
    run_bytes_to_server = r.Session.rep_bytes_to_server;
    run_bytes_to_mobile = r.Session.rep_bytes_to_mobile;
    run_server_span_s = r.Session.rep_server_span_s;
    run_metrics = Some metrics;
  }

(* Run one offloaded configuration; returns the comparable run record,
   which carries the session's ledger so figures can be derived from
   the event stream, along with the session's full report. *)
let offloaded_run ?(label = "offloaded") ~(config : Session.config)
    (compiled : Compiler.compiled) (entry : Registry.entry) :
    run * Session.report =
  let session =
    Session.create ~config ~script:entry.Registry.e_eval_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  let report = Session.run session in
  (run_of_session ~metrics:(Session.ledger session) label report, report)

let slow_config () = Session.default_config ~link:Link.slow_wifi ()

let fast_config () = Session.default_config ~link:Link.fast_wifi ()

let ideal_config () =
  { (Session.default_config ~link:Link.fast_wifi ()) with
    Session.ideal = true }

let run_entry (entry : Registry.entry) : program_result =
  let compiled = Compiler.compile_entry entry in
  let local =
    run_of_local "local"
      (Local_run.run ~script:entry.Registry.e_eval_script
         ~files:entry.Registry.e_files compiled.Compiler.c_original)
  in
  let slow, _ =
    offloaded_run ~label:"slow" ~config:(slow_config ()) compiled entry
  in
  let fast, _ =
    offloaded_run ~label:"fast" ~config:(fast_config ()) compiled entry
  in
  let ideal, _ =
    offloaded_run ~label:"ideal" ~config:(ideal_config ()) compiled entry
  in
  {
    pres_entry = entry;
    pres_compiled = compiled;
    pres_local = local;
    pres_slow = slow;
    pres_fast = fast;
    pres_ideal = ideal;
  }

(* Figure 6 quantities. *)
let normalized_time result (r : run) =
  r.run_exec_s /. result.pres_local.run_exec_s

let normalized_energy result (r : run) =
  r.run_energy_mj /. result.pres_local.run_energy_mj

let speedup result (r : run) =
  result.pres_local.run_exec_s /. r.run_exec_s

(* Figure 7 breakdown: computation is what remains after the runtime's
   overhead categories. *)
type breakdown = {
  bd_computation_s : float;
  bd_fnptr_s : float;
  bd_remote_io_s : float;
  bd_comm_s : float;
}

(* The breakdown of an offloaded run, read off its ledger: the total
   is the sum of the power segments (they partition the timeline) and
   the overheads are the folded Flush / Page_fault / Fnptr_translate /
   Remote_io costs. *)
let breakdown_of_trace (m : Trace.Metrics.t) : breakdown =
  let comm = m.Trace.Metrics.comm_s in
  let fnptr = m.Trace.Metrics.fnptr_s in
  let remote_io = m.Trace.Metrics.remote_io_s in
  let total = Trace.Metrics.total_s m in
  {
    bd_computation_s = Float.max 0.0 (total -. (comm +. fnptr +. remote_io));
    bd_fnptr_s = fnptr;
    bd_remote_io_s = remote_io;
    bd_comm_s = comm;
  }

(* Geometric mean over a list of positive ratios. *)
let geomean values =
  match values with
  | [] -> invalid_arg "Experiment.geomean: empty"
  | _ ->
    exp
      (List.fold_left (fun acc v -> acc +. log v) 0.0 values
      /. float_of_int (List.length values))

(* The idle power level of the session's battery model: what a
   resampled power timeline shows where no segment covers a sample.
   The radio sets only the remote-I/O level, so either serves. *)
let idle_mw =
  No_power.Power_model.draw_mw
    (No_power.Power_model.galaxy_s5 ~fast_radio:false)
    No_power.Power_model.Idle
