(* Regeneration of every table and figure in the paper's evaluation.

   Table 1  — chess move computation, phone vs desktop, per depth.
   Table 2  — native code in the top-20 Android app corpus.
   Table 3  — profiling + Equation-1 estimation on the chess example.
   Table 4  — per-program offloading statistics over the 17 programs.
   Table 5  — related-system comparison.
   Fig 6(a) — normalized execution time (slow / fast / ideal).
   Fig 6(b) — normalized battery consumption.
   Fig 7    — overhead breakdown per program and network.
   Fig 8    — power over time for 458.sjeng and 445.gobmk.
   Ablations — the design choices of §3.2, §3.3 and §4 switched off.

   Absolute numbers are simulated (see the sim scales in No_arch.Arch
   and No_netsim.Link); the shapes are what reproduces the paper. *)

module Arch = No_arch.Arch
module Link = No_netsim.Link
module Profiler = No_profiler.Profiler
module Static_estimate = No_estimator.Static_estimate
module Pipeline = No_transform.Pipeline
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Registry = No_workloads.Registry
module Chess = No_workloads.Chess
module Table = No_report.Table
module Android_apps = No_corpus.Android_apps
module Related_systems = No_corpus.Related_systems

(* {1 Table 1 — chess on two machines} *)

(* Time only the AI movement computation, as Table 1 does. *)
let chess_time_on (arch : Arch.t) ~depth : float =
  match
    Profiler.find_sample
      (Compiler.profile ~arch ~script:(Chess.script ~depth ~turns:1) ~files:[]
         (Chess.build ()))
      ~kind:Profiler.Func ~name:"getAITurn"
  with
  | Some s -> s.Profiler.s_time
  | None -> invalid_arg "Evaluation.chess_time_on: getAITurn not profiled"

let table1 () : Table.t =
  let table =
    Table.create
      ~title:
        "Table 1: movement computation time of the chess game (simulated s)"
      [ "difficulty"; "desktop (s)"; "smartphone (s)"; "gap (x)" ]
  in
  List.iter
    (fun depth ->
      let desktop = chess_time_on Arch.x86_64 ~depth in
      let smartphone = chess_time_on Arch.arm32 ~depth in
      Table.add_row table
        [
          string_of_int depth;
          Table.cell_f ~digits:3 desktop;
          Table.cell_f ~digits:3 smartphone;
          Table.cell_f (smartphone /. desktop);
        ])
    [ 7; 8; 9; 10; 11 ];
  table

(* {1 Table 2 — Android app corpus} *)

let table2 () : Table.t =
  let table =
    Table.create
      ~title:"Table 2: C/C++ code and execution-time ratios, top-20 apps"
      [ "application"; "description"; "C/C++ LoC"; "total LoC"; "LoC ratio";
        "exec-time ratio" ]
  in
  List.iter
    (fun (a : Android_apps.app) ->
      Table.add_row table
        [
          a.Android_apps.app_name;
          a.Android_apps.app_description;
          Table.cell_i a.Android_apps.app_native_loc;
          Table.cell_i a.Android_apps.app_total_loc;
          Table.cell_pct (Android_apps.native_loc_ratio a);
          Table.cell_pct a.Android_apps.app_native_time_pct;
        ])
    Android_apps.apps;
  let s = Android_apps.summarize () in
  Table.add_row table
    [
      "== summary ==";
      Printf.sprintf "%d/%d with native code" s.Android_apps.apps_with_native
        s.Android_apps.total_apps;
      "";
      "";
      Printf.sprintf "%d apps > 50%%" s.Android_apps.apps_majority_native_loc;
      Printf.sprintf "%d apps > 20%%" s.Android_apps.apps_heavy_native_time;
    ];
  table

(* {1 Table 3 — chess profiling and estimation} *)

let table3 () : Table.t =
  let m = Chess.build () in
  let compiled =
    Compiler.compile ~profile_script:(Chess.script ~depth:5 ~turns:3) m
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Table 3: profiling and performance estimation, chess (R=%.2f)"
           compiled.Compiler.c_ratio)
      [ "candidate"; "kind"; "exec (s)"; "invocations"; "mem (KB)";
        "Tideal (s)"; "Tc (s)"; "Tg (s)"; "verdict" ]
  in
  let rows = compiled.Compiler.c_selection.Static_estimate.rows in
  List.iter
    (fun (row : Static_estimate.row) ->
      let kind =
        match row.Static_estimate.row_kind with
        | Profiler.Func -> "fn"
        | Profiler.Loop -> "loop"
      in
      let ideal, tc, tg, verdict =
        match row.Static_estimate.row_breakdown, row.Static_estimate.row_filtered with
        | Some b, _ ->
          ( Table.cell_f ~digits:3 b.No_estimator.Equation.ideal_gain_s,
            Table.cell_f ~digits:3 b.No_estimator.Equation.comm_cost_s,
            Table.cell_f ~digits:3 b.No_estimator.Equation.gain_s,
            if row.Static_estimate.row_selected then "SELECTED"
            else if b.No_estimator.Equation.gain_s > 0.0 then "subsumed"
            else "unprofitable" )
        | None, Some reason -> ("-", "-", "-", "filtered: " ^ reason)
        | None, None -> ("-", "-", "-", "-")
      in
      Table.add_row table
        [
          row.Static_estimate.row_name;
          kind;
          Table.cell_f ~digits:3 row.Static_estimate.row_time_s;
          Table.cell_i row.Static_estimate.row_invocations;
          Table.cell_i (row.Static_estimate.row_mem_bytes / 1024);
          ideal;
          tc;
          tg;
          verdict;
        ])
    rows;
  table

(* {1 The 17-program sweep (shared by Table 4 and the figures)} *)

(* One lazy run per program: Figure 8 forces the two it plots, the
   others force them all. *)
let runs : (string * Experiment.program_result Lazy.t) list =
  List.map
    (fun (e : Registry.entry) ->
      (e.Registry.e_name, lazy (Experiment.run_entry e)))
    Registry.spec

let all_results : Experiment.program_result list Lazy.t =
  lazy (List.map (fun (_, result) -> Lazy.force result) runs)

(* Coverage: share of the local execution time the offloaded targets
   account for, measured on the evaluation input.  In the ideal
   configuration nothing but target execution leaves the mobile
   device, so the non-covered time is exactly the ideal run's
   mobile-side time. *)
let coverage (res : Experiment.program_result) : float =
  let local = res.Experiment.pres_local.Experiment.run_exec_s in
  let ideal = res.Experiment.pres_ideal in
  if local <= 0.0 || ideal.Experiment.run_offloads = 0 then 0.0
  else
    let mobile_side =
      ideal.Experiment.run_exec_s -. ideal.Experiment.run_server_span_s
    in
    Float.max 0.0 (Float.min 100.0 (100.0 *. (1.0 -. (mobile_side /. local))))

let table4 () : Table.t =
  let table =
    Table.create
      ~title:
        "Table 4: offloaded programs (measured | paper).  Traffic is MB \
         per invocation."
      [ "program"; "target"; "offl fns"; "ref GVs"; "fn-ptr maps";
        "coverage"; "invocations"; "traffic MB" ]
  in
  List.iter
    (fun (res : Experiment.program_result) ->
      let entry = res.Experiment.pres_entry in
      let paper = entry.Registry.e_paper in
      let stats = res.Experiment.pres_compiled.Compiler.c_output.Pipeline.o_stats in
      let fast = res.Experiment.pres_fast in
      let invocations = fast.Experiment.run_offloads in
      let traffic_mb =
        if invocations = 0 then 0.0
        else
          float_of_int
            (fast.Experiment.run_bytes_to_server
            + fast.Experiment.run_bytes_to_mobile)
          /. float_of_int invocations /. 1048576.0
      in
      let pair fmt_a a b = Printf.sprintf "%s | %s" (fmt_a a) b in
      Table.add_row table
        [
          entry.Registry.e_name;
          paper.Registry.pr_target;
          pair
            (fun s -> s)
            (Printf.sprintf "%d/%d" stats.Pipeline.st_server_functions
               stats.Pipeline.st_total_functions)
            (Printf.sprintf "%d/%d" (fst paper.Registry.pr_offloaded_fns)
               (snd paper.Registry.pr_offloaded_fns));
          pair
            (fun s -> s)
            (Printf.sprintf "%d/%d" stats.Pipeline.st_reallocated_globals
               stats.Pipeline.st_total_globals)
            (Printf.sprintf "%d/%d" (fst paper.Registry.pr_referenced_gvs)
               (snd paper.Registry.pr_referenced_gvs));
          pair
            (fun s -> s)
            (string_of_int
               (stats.Pipeline.st_fnptr_load_maps
               + stats.Pipeline.st_fnptr_store_maps))
            (string_of_int paper.Registry.pr_fn_ptr_uses);
          pair Table.cell_pct (coverage res)
            (Table.cell_pct paper.Registry.pr_coverage);
          pair Table.cell_i invocations
            (Table.cell_i paper.Registry.pr_invocations);
          pair (Table.cell_f ~digits:2) traffic_mb
            (Table.cell_f ~digits:1 paper.Registry.pr_traffic_mb);
        ])
    (Lazy.force all_results);
  table

let table5 () : Table.t =
  let table =
    Table.create ~title:"Table 5: comparison of computation offload systems"
      [ "system"; "fully automatic"; "decision"; "requires VM"; "language";
        "app complexity" ]
  in
  List.iter
    (fun (s : Related_systems.system) ->
      Table.add_row table
        [
          s.Related_systems.sys_name;
          Related_systems.automation_to_string s.Related_systems.sys_automation;
          Related_systems.decision_to_string s.Related_systems.sys_decision;
          (if s.Related_systems.sys_requires_vm then "Yes" else "No");
          s.Related_systems.sys_language;
          Related_systems.complexity_to_string s.Related_systems.sys_complexity;
        ])
    Related_systems.systems;
  table

(* {1 Figure 6 — normalized time and battery} *)

let star run =
  (* The paper marks configurations the dynamic estimator refused with
     an asterisk. *)
  if run.Experiment.run_offloads = 0 && run.Experiment.run_refusals > 0 then
    "*"
  else ""

let fig6 ~(quantity : Experiment.program_result -> Experiment.run -> float)
    ~title () : Table.t =
  let table =
    Table.create ~title [ "program"; "slow"; "fast"; "ideal" ]
  in
  let results = Lazy.force all_results in
  let cell result run =
    Table.cell_f ~digits:3 (quantity result run) ^ star run
  in
  List.iter
    (fun (res : Experiment.program_result) ->
      Table.add_row table
        [
          res.Experiment.pres_entry.Registry.e_name;
          cell res res.Experiment.pres_slow;
          cell res res.Experiment.pres_fast;
          cell res res.Experiment.pres_ideal;
        ])
    results;
  let geo pick =
    Experiment.geomean
      (List.map (fun res -> quantity res (pick res)) results)
  in
  Table.add_row table
    [
      "geomean";
      Table.cell_f ~digits:3 (geo (fun r -> r.Experiment.pres_slow));
      Table.cell_f ~digits:3 (geo (fun r -> r.Experiment.pres_fast));
      Table.cell_f ~digits:3 (geo (fun r -> r.Experiment.pres_ideal));
    ];
  table

let fig6a () =
  fig6 ~quantity:Experiment.normalized_time
    ~title:
      "Figure 6(a): execution time normalized to local execution (* = \
       not offloaded by dynamic estimation)"
    ()

let fig6b () =
  fig6 ~quantity:Experiment.normalized_energy
    ~title:
      "Figure 6(b): battery consumption normalized to local execution (* \
       = not offloaded)"
    ()

(* {1 Figure 7 — overhead breakdown}

   Read off each offloaded run's ledger, the fold of its Flush /
   Page_fault / Fnptr_translate / Remote_io / Power_state events that
   the session's report is filled from too. *)

let fig7 () : Table.t =
  let table =
    Table.create
      ~title:
        "Figure 7: breakdown of offloaded execution time (seconds; s = \
         slow, f = fast network; event-stream derived)"
      [ "program"; "net"; "computation"; "fn-ptr transl."; "remote I/O";
        "communication"; "total" ]
  in
  List.iter
    (fun (res : Experiment.program_result) ->
      List.iter
        (fun (tag, run) ->
          let bd =
            Experiment.breakdown_of_trace
              (Option.get run.Experiment.run_metrics)
          in
          Table.add_row table
            [
              res.Experiment.pres_entry.Registry.e_name;
              tag;
              Table.cell_f bd.Experiment.bd_computation_s;
              Table.cell_f bd.Experiment.bd_fnptr_s;
              Table.cell_f bd.Experiment.bd_remote_io_s;
              Table.cell_f bd.Experiment.bd_comm_s;
              Table.cell_f run.Experiment.run_exec_s;
            ])
        [ ("s", res.Experiment.pres_slow); ("f", res.Experiment.pres_fast) ])
    (Lazy.force all_results);
  table

(* {1 Figure 8 — power over time}

   The timeline is resampled from the Power_state events in the ledger
   of a run the 17-program sweep made; the battery keeps no segment
   list of its own. *)

let fig8_points = 60

let fig8_trace (run : Experiment.run) : (float * float) list =
  let metrics = Option.get run.Experiment.run_metrics in
  let horizon =
    List.fold_left
      (fun acc (ts, _, dur, _) -> Float.max acc (ts +. dur))
      0.0
      (No_trace.Trace.Metrics.power_segments metrics)
  in
  let period = Float.max (horizon /. float_of_int fig8_points) 1e-9 in
  No_trace.Trace.Metrics.resample_power metrics ~period_s:period
    ~idle_mw:Experiment.idle_mw

let fig8 () : Table.t =
  let table =
    Table.create
      ~title:"Figure 8: power consumption over time (mW, resampled)"
      [ "t/horizon"; "sjeng fast"; "gobmk fast"; "gobmk slow" ]
  in
  let sjeng = Lazy.force (List.assoc "458.sjeng" runs)
  and gobmk = Lazy.force (List.assoc "445.gobmk" runs) in
  let sjeng_fast = fig8_trace sjeng.Experiment.pres_fast
  and gobmk_fast = fig8_trace gobmk.Experiment.pres_fast
  and gobmk_slow = fig8_trace gobmk.Experiment.pres_slow in
  let value trace i =
    match List.nth_opt trace i with
    | Some (_, mw) -> Table.cell_f ~digits:0 mw
    | None -> "-"
  in
  for i = 0 to fig8_points do
    Table.add_row table
      [
        Printf.sprintf "%.3f" (float_of_int i /. float_of_int fig8_points);
        value sjeng_fast i;
        value gobmk_fast i;
        value gobmk_slow i;
      ]
  done;
  table

(* {1 Ablations}

   Each table switches off one design choice and keeps the rest. *)

(* Data movement (§3.3) on 429.mcf: a large, partially-dirty working
   set where the policies differ visibly. *)
let movement_ablation () : Table.t =
  let entry = Option.get (Registry.by_name "429.mcf") in
  let compiled = Compiler.compile_entry entry in
  let table =
    Table.create
      ~title:"Ablation: data movement policy (429.mcf, fast network)"
      [ "policy"; "exec (s)"; "faults"; "to server (KB)";
        "to mobile wire (KB)" ]
  in
  let base = Session.default_config () in
  List.iter
    (fun (label, config) ->
      let _, r = Experiment.offloaded_run ~config compiled entry in
      Table.add_row table
        [
          label;
          Table.cell_f r.Session.rep_total_s;
          Table.cell_i r.Session.rep_faults;
          Table.cell_i (r.Session.rep_bytes_to_server / 1024);
          Table.cell_i (r.Session.rep_wire_bytes_to_mobile / 1024);
        ])
    [
      ("copy-on-demand + prefetch (default)", base);
      ("no prefetch (pure copy-on-demand)",
       { base with Session.prefetch = false });
      ("copy-all (static partitioning style)",
       { base with Session.copy_all = true });
      ("no write-back compression",
       { base with Session.compress_writeback = false });
      ("compress both directions",
       { base with Session.compress_upload = true });
    ];
  table

(* The offload decision (§4) on 164.gzip over degrading networks: the
   dynamic estimator is what saves gzip from a slowdown. *)
let decision_ablation () : Table.t =
  let gzip = Option.get (Registry.by_name "164.gzip") in
  let compiled = Compiler.compile_entry gzip in
  let local =
    Local_run.run ~script:gzip.Registry.e_eval_script
      ~files:gzip.Registry.e_files compiled.Compiler.c_original
  in
  let table =
    Table.create
      ~title:
        "Ablation: offload decision mode (164.gzip; the dynamic \
         estimator's refusals protect the degrading networks)"
      [ "network"; "decision"; "exec (s)"; "vs local"; "offloads" ]
  in
  Table.add_row table
    [ "-"; "local baseline"; Table.cell_f local.Local_run.lr_total_s; "1.00";
      "0" ];
  List.iter
    (fun (net_label, link) ->
      List.iter
        (fun (label, decision) ->
          let config =
            { (Session.default_config ~link ()) with Session.decision }
          in
          let _, r = Experiment.offloaded_run ~config compiled gzip in
          Table.add_row table
            [
              net_label;
              label;
              Table.cell_f r.Session.rep_total_s;
              Table.cell_f
                (r.Session.rep_total_s /. local.Local_run.lr_total_s);
              Table.cell_i r.Session.rep_offloads;
            ])
        [ ("dynamic (paper)", Session.Dynamic);
          ("always offload", Session.Always_offload);
          ("never offload", Session.Never_offload) ])
    [ ("802.11n", Link.slow_wifi); ("congested", Link.congested) ];
  table

(* Realignment (§3.2) on chess: explicit GEP lowering, the literal
   codegen, against the layout environment the pipeline uses by
   default. *)
let realignment_ablation () : Table.t =
  let chess = Chess.build () in
  let table =
    Table.create
      ~title:
        "Ablation: explicit GEP lowering vs layout-environment realignment \
         (chess, fast network)"
      [ "realignment"; "exec (s)"; "offloads" ]
  in
  List.iter
    (fun (label, lower_geps) ->
      let out =
        Pipeline.run ~lower_geps ~mobile:Arch.arm32 ~server:Arch.x86_64
          ~targets:[ Chess.target ] chess
      in
      let session =
        Session.create
          ~config:(Session.default_config ())
          ~script:(Chess.script ~depth:6 ~turns:2)
          out
          ~seeds:
            [ { Session.seed_name = Chess.target; Session.seed_time_s = 1.0;
                Session.seed_mem_bytes = 32768 } ]
      in
      let r = Session.run session in
      Table.add_row table
        [ label; Table.cell_f r.Session.rep_total_s;
          Table.cell_i r.Session.rep_offloads ])
    [ ("layout environment (default)", false);
      ("explicit byte arithmetic", true) ];
  table

let ablations () : Table.t list =
  [ movement_ablation (); decision_ablation (); realignment_ablation () ]

(* {1 Headline numbers} *)

type headline = {
  h_geomean_speedup_fast : float;
  h_geomean_speedup_slow : float;
  h_battery_saving_fast_pct : float;
  h_battery_saving_slow_pct : float;
}

let headline () : headline =
  let results = Lazy.force all_results in
  let geo pick f = Experiment.geomean (List.map (fun r -> f r (pick r)) results) in
  {
    h_geomean_speedup_fast =
      geo (fun r -> r.Experiment.pres_fast) Experiment.speedup;
    h_geomean_speedup_slow =
      geo (fun r -> r.Experiment.pres_slow) Experiment.speedup;
    h_battery_saving_fast_pct =
      100.0
      *. (1.0 -. geo (fun r -> r.Experiment.pres_fast) Experiment.normalized_energy);
    h_battery_saving_slow_pct =
      100.0
      *. (1.0 -. geo (fun r -> r.Experiment.pres_slow) Experiment.normalized_energy);
  }
