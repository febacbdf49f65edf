(* Workload registry: the 17 SPEC programs of Table 4, each built from
   its program module with the paper's published row for side-by-side
   comparison in the tables and in EXPERIMENTS.md, plus two synthetic
   scheduler workloads.  The chess application of Figure 3 / Table 1 /
   Table 3 is not an entry: its drivers script it by depth. *)

module Ir = No_ir.Ir
module Console = No_exec.Console

(* The paper's Table 4 row for a program. *)
type paper_row = {
  pr_loc_k : float;              (* lines of code, thousands *)
  pr_exec_s : float;             (* smartphone execution time, eval input *)
  pr_offloaded_fns : int * int;  (* offloaded / total functions *)
  pr_referenced_gvs : int * int; (* referenced / total global variables *)
  pr_fn_ptr_uses : int;
  pr_target : string;            (* "Target Function" column *)
  pr_coverage : float;           (* % of execution time covered *)
  pr_invocations : int;
  pr_traffic_mb : float;         (* communication per invocation, MB *)
}

type entry = {
  e_name : string;
  e_description : string;
  e_build : unit -> Ir.modul;
  e_profile_script : Console.input list;
  e_eval_script : Console.input list;
  e_files : (string * Bytes.t) list;
  e_eval_scale : float;
  e_expected_targets : string list;
  e_paper : paper_row;
}

(* What every workload program module exports: its IR, the inputs the
   paper profiles and evaluates it on (§5), its input files, how much
   heavier the evaluation input is per invocation ([eval_scale], which
   seeds the runtime's dynamic estimator), and the targets the
   compiler is expected to select. *)
module type PROGRAM = sig
  val name : string
  val description : string
  val targets : string list
  val build : unit -> Ir.modul
  val profile_script : Console.input list
  val eval_script : Console.input list
  val files : (string * Bytes.t) list
  val eval_scale : float
end

let entry (module P : PROGRAM) e_paper = {
  e_name = P.name;
  e_description = P.description;
  e_build = P.build;
  e_profile_script = P.profile_script;
  e_eval_script = P.eval_script;
  e_files = P.files;
  e_eval_scale = P.eval_scale;
  e_expected_targets = P.targets;
  e_paper;
}

let row ~loc ~exec ~fns ~gvs ~ptrs ~target ~cover ~invo ~traffic = {
  pr_loc_k = loc;
  pr_exec_s = exec;
  pr_offloaded_fns = fns;
  pr_referenced_gvs = gvs;
  pr_fn_ptr_uses = ptrs;
  pr_target = target;
  pr_coverage = cover;
  pr_invocations = invo;
  pr_traffic_mb = traffic;
}

let spec : entry list =
  [
    entry (module Spec_gzip)
      (row ~loc:5.5 ~exec:15.3 ~fns:(20, 89) ~gvs:(141, 241) ~ptrs:9
         ~target:"spec_compress" ~cover:98.90 ~invo:1 ~traffic:151.5);
    entry (module Spec_vpr)
      (row ~loc:11.3 ~exec:26.9 ~fns:(9, 272) ~gvs:(672, 760) ~ptrs:3
         ~target:"try_place_while.cond" ~cover:99.07 ~invo:1 ~traffic:0.8);
    entry (module Spec_mesa)
      (row ~loc:42.2 ~exec:120.2 ~fns:(11, 1105) ~gvs:(608, 627) ~ptrs:1169
         ~target:"Render" ~cover:99.02 ~invo:1 ~traffic:20.3);
    entry (module Spec_art)
      (row ~loc:5.7 ~exec:325.5 ~fns:(7, 26) ~gvs:(52, 79) ~ptrs:0
         ~target:"scan_recognize" ~cover:85.44 ~invo:1 ~traffic:16.4);
    entry (module Spec_equake)
      (row ~loc:1.0 ~exec:334.0 ~fns:(5, 28) ~gvs:(83, 104) ~ptrs:0
         ~target:"main_for.cond548" ~cover:99.44 ~invo:1 ~traffic:16.5);
    entry (module Spec_ammp)
      (row ~loc:9.8 ~exec:878.0 ~fns:(17, 179) ~gvs:(324, 333) ~ptrs:66
         ~target:"AMMPmonitor + tpac" ~cover:85.60 ~invo:3 ~traffic:17.6);
    entry (module Spec_twolf)
      (row ~loc:17.8 ~exec:157.8 ~fns:(3, 191) ~gvs:(566, 838) ~ptrs:0
         ~target:"utemp" ~cover:99.84 ~invo:1 ~traffic:3.3);
    entry (module Spec_bzip2)
      (row ~loc:5.7 ~exec:27.0 ~fns:(58, 100) ~gvs:(95, 120) ~ptrs:24
         ~target:"spec_compress" ~cover:98.79 ~invo:1 ~traffic:134.3);
    entry (module Spec_mcf)
      (row ~loc:1.6 ~exec:104.8 ~fns:(19, 24) ~gvs:(39, 43) ~ptrs:0
         ~target:"global_opt" ~cover:99.55 ~invo:1 ~traffic:47.9);
    entry (module Spec_milc)
      (row ~loc:9.6 ~exec:365.8 ~fns:(61, 235) ~gvs:(445, 493) ~ptrs:6
         ~target:"update" ~cover:96.21 ~invo:2 ~traffic:13.4);
    entry (module Spec_gobmk)
      (row ~loc:156.3 ~exec:361.8 ~fns:(6, 2679) ~gvs:(21844, 22090) ~ptrs:77
         ~target:"gtp_main_loop" ~cover:99.96 ~invo:1 ~traffic:25.7);
    entry (module Spec_hmmer)
      (row ~loc:20.6 ~exec:31.3 ~fns:(36, 538) ~gvs:(995, 1050) ~ptrs:36
         ~target:"main_loop_serial" ~cover:99.99 ~invo:1 ~traffic:0.3);
    entry (module Spec_sjeng)
      (row ~loc:10.5 ~exec:950.8 ~fns:(91, 144) ~gvs:(495, 624) ~ptrs:1
         ~target:"think" ~cover:99.95 ~invo:3 ~traffic:240.2);
    entry (module Spec_libquantum)
      (row ~loc:2.6 ~exec:71.0 ~fns:(62, 116) ~gvs:(0, 44) ~ptrs:0
         ~target:"quantum_exp_mod_n" ~cover:92.56 ~invo:1 ~traffic:6.3);
    entry (module Spec_h264ref)
      (row ~loc:59.5 ~exec:78.2 ~fns:(48, 1333) ~gvs:(2012, 2822) ~ptrs:457
         ~target:"encode_sequence" ~cover:99.79 ~invo:1 ~traffic:17.1);
    entry (module Spec_lbm)
      (row ~loc:0.9 ~exec:1444.9 ~fns:(1, 19) ~gvs:(16, 20) ~ptrs:0
         ~target:"main_for.cond" ~cover:99.70 ~invo:1 ~traffic:643.6);
    entry (module Spec_sphinx3)
      (row ~loc:13.1 ~exec:375.2 ~fns:(124, 370) ~gvs:(1265, 1329) ~ptrs:14
         ~target:"main_for.cond" ~cover:98.39 ~invo:1 ~traffic:34.0);
  ]

(* Synthetic scheduler-stress workloads.  Not part of the paper's
   Table 4 — kept out of [spec] so the evaluation tables and the
   per-workload tests iterate only the paper's programs — but
   resolvable through [by_name] for fleet-scale scheduling sweeps.
   The paper row is all zeros: there is no published counterpart. *)
let synthetic : entry list =
  let no_row =
    row ~loc:0.0 ~exec:0.0 ~fns:(1, 3) ~gvs:(0, 0) ~ptrs:0
      ~target:(List.hd Fleet_micro.targets) ~cover:0.0 ~invo:1 ~traffic:0.0
  in
  [
    entry (module Fleet_micro) no_row;
    entry (module struct include Fleet_micro include Fleet_micro.Heavy end)
      no_row;
  ]

let by_name name =
  List.find_opt (fun e -> String.equal e.e_name name) (spec @ synthetic)
