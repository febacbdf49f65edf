(* The compile-time half of Native Offloader, end to end:

     profile (hot function/loop profiler on a profiling input)
       -> machine-specific filter
       -> static performance estimation + target selection (Eq. 1)
       -> memory unification + partition + server optimizations

   This is Figure 1's compiler box.  The paper "uses different inputs
   for profiling and evaluation"; callers provide the profiling script
   and an [eval_scale] hinting how much heavier the evaluation input
   is per invocation, which seeds the runtime's dynamic estimator. *)

module Ir = No_ir.Ir
module Arch = No_arch.Arch
module Validate = No_ir.Validate
module Interp = No_exec.Interp
module Profiler = No_profiler.Profiler
module Filter = No_analysis.Filter
module Static_estimate = No_estimator.Static_estimate
module Pipeline = No_transform.Pipeline
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run

type compiled = {
  c_original : Ir.modul;
  c_output : Pipeline.output;
  c_samples : Profiler.sample list;
  c_verdicts : Filter.t;
  c_selection : Static_estimate.result;
  c_seeds : Session.target_seed list;
  c_ratio : float;
}

exception No_profitable_target of string

(* Run the unmodified module on a simulated mobile device, the host a
   local run uses, under the profiler. *)
let profile ?arch ~script ~files (m : Ir.modul) : Profiler.sample list =
  let host = Local_run.host ?arch ~script ~files m in
  let profiler = Profiler.attach host in
  ignore (Interp.run_main host);
  Profiler.detach profiler;
  Profiler.results profiler

(* Default compile-time estimation bandwidth: the *favorable* network
   (802.11ac effective rate).  Targets that only pay off on a fast
   network must still be partitioned -- the runtime's dynamic
   estimator refuses them when the actual network is slow (the
   paper's 164.gzip behaviour).  Table 3's worked example uses the
   paper's 80 Mbps figure explicitly. *)
let default_selection_bw =
  No_netsim.Link.effective_bps No_netsim.Link.fast_wifi

let compile ?(mobile = Arch.arm32) ?(server = Arch.x86_64)
    ?(eval_scale = 1.0) ~profile_script ?(profile_files = [])
    (m : Ir.modul) : compiled =
  Validate.check_module m;
  let samples = profile ~arch:mobile ~script:profile_script
      ~files:profile_files m in
  let verdicts = Filter.analyze m in
  let ratio = Arch.performance_ratio ~mobile ~server in
  let selection =
    Static_estimate.run m ~r:ratio ~bw_bps:default_selection_bw verdicts
      samples
  in
  if selection.Static_estimate.targets = [] then
    raise (No_profitable_target m.Ir.m_name);
  let output =
    Pipeline.run ~mobile ~server ~targets:selection.Static_estimate.targets m
  in
  let seeds =
    List.filter_map
      (fun name ->
        match Profiler.find_sample samples ~kind:Profiler.Func ~name with
        | Some s ->
          let per_invocation =
            s.Profiler.s_time /. float_of_int (max 1 s.Profiler.s_invocations)
          in
          Some
            {
              Session.seed_name = name;
              Session.seed_time_s = per_invocation *. eval_scale;
              Session.seed_mem_bytes = s.Profiler.s_mem_bytes;
            }
        | None -> None)
      selection.Static_estimate.targets
  in
  {
    c_original = m;
    c_output = output;
    c_samples = samples;
    c_verdicts = verdicts;
    c_selection = selection;
    c_seeds = seeds;
    c_ratio = ratio;
  }

(* A registry program, profiled on its own profiling input and files,
   with its eval scale seeding the dynamic estimator: the paper's
   profile-on-one-input, evaluate-on-another setup (§5). *)
let compile_entry (e : No_workloads.Registry.entry) : compiled =
  compile ~profile_script:e.e_profile_script ~profile_files:e.e_files
    ~eval_scale:e.e_eval_scale (e.e_build ())
