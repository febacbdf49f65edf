(* One shared set of short names for the project's layered libraries.

   Every driver (bench harness, CLI, examples) used to open with the
   same ~25-line block of module aliases; they now [open
   No_prelude.Prelude] instead.  Aliases only — no values, no side
   effects — so opening it costs nothing and shadows nothing. *)

(* IR *)
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Builder = No_ir.Builder
module Pretty = No_ir.Pretty

(* Architecture and memory *)
module Arch = No_arch.Arch
module Cost = No_arch.Cost
module Layout = No_arch.Layout
module Memory = No_mem.Memory
module Region = No_mem.Region
module Uva = No_mem.Uva
module Stack_alloc = No_mem.Stack_alloc

(* Network and power *)
module Link = No_netsim.Link
module Channel = No_netsim.Channel
module Compress = No_netsim.Compress
module Battery = No_power.Battery
module Power_model = No_power.Power_model

(* Execution *)
module Host = No_exec.Host
module Interp = No_exec.Interp
module Console = No_exec.Console
module Value = No_exec.Value

(* Analysis, profiling, estimation, transformation *)
module Profiler = No_profiler.Profiler
module Filter = No_analysis.Filter
module Equation = No_estimator.Equation
module Static_estimate = No_estimator.Static_estimate
module Dynamic_estimate = No_estimator.Dynamic_estimate
module Pipeline = No_transform.Pipeline
module Partition = No_transform.Partition

(* Runtime *)
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run

(* Faults and tracing *)
module Trace = No_trace.Trace
module Fault_plan = No_fault.Plan
module Injector = No_fault.Injector
module Rng = No_fault.Rng

(* Observability *)
module Span = No_obs.Span
module Hist = No_obs.Hist
module Flame = No_obs.Flame
module Audit = No_obs.Audit
module Trace_file = No_obs.Trace_file
module Series = No_obs.Series
module Openmetrics = No_obs.Openmetrics
module Slo = No_obs.Slo
module Incident = No_obs.Incident
module Diff = No_obs.Diff
module Selfprof = No_selfprof.Selfprof

(* Multi-client scheduling *)
module Server_load = No_sched.Server_load
module Event_queue = No_sched.Event_queue
module Pool = No_sched.Pool
module Sim = No_sched.Sim

(* Workloads and reporting *)
module Registry = No_workloads.Registry
module Chess = No_workloads.Chess
module Support = No_workloads.Support
module Table = No_report.Table
module Metrics_report = No_report.Metrics_report

(* Top-level driver layer *)
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment
module Evaluation = Native_offloader.Evaluation
