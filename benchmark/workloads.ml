(* The four benchmark workloads.

   Each workload's set-up makes its inputs from the seed and returns a
   pass: the timed unit of work, closed-loop inside this process.  A
   pass checks every simulated run it makes (see Check) and returns a
   digest of everything it simulated, so passes of one run and runs of
   one seed can be compared exactly.  Calls into the simulator's layers
   go through the wrappers below, which put a span around each call. *)

module Ir = No_ir.Ir
module Validate = No_ir.Validate
module Arch = No_arch.Arch
module Profiler = No_profiler.Profiler
module Filter = No_analysis.Filter
module Static_estimate = No_estimator.Static_estimate
module Pipeline = No_transform.Pipeline
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment
module Trace = No_trace.Trace
module Plan = No_fault.Plan
module Rng = No_fault.Rng
module Sim = No_sched.Sim
module Pool = No_sched.Pool
module Server_load = No_sched.Server_load
module Trace_file = No_obs.Trace_file
module Span = No_obs.Span
module Audit = No_obs.Audit
module Flame = No_obs.Flame
module Series = No_obs.Series
module Slo = No_obs.Slo

type pass_result = {
  digest : string;
  runs : int;  (** simulated runs made, or captured runs analysed *)
  exact : (string * float * string) list;
      (** the deterministic model outputs (see [finish]): name, value,
          note *)
}

type prepared = {
  summary : string;  (** what one pass does, for the report *)
  pass : unit -> pass_result;
  verify : unit -> unit;
      (** untimed checks run once after measuring: [paper-eval] checks
          its phase-composed compiles of all 17 programs against
          [Compiler.compile]; the other workloads compose the same
          compile and check nothing here *)
}

type t = {
  name : string;
  setup : seed:int -> smoke:bool -> prepared;
}

(* {1 Layer calls, each under a span} *)

let mobile = Arch.arm32
let server = Arch.x86_64

let entry name =
  match Registry.by_name name with
  | Some e -> e
  | None -> invalid_arg ("unknown registry program " ^ name)

let build (e : Registry.entry) =
  Tracer.span ~layer:"workloads" ~program:e.Registry.e_name "Registry.e_build"
    e.Registry.e_build

(* [Compiler.compile] composed from its public phases, so each phase
   gets its own span.  It must track the reference in
   lib/core/compiler.ml; [verify_compile] checks that the composition
   selects the same targets and seeds. *)
let compile (e : Registry.entry) (m : Ir.modul) : Compiler.compiled =
  let run_id = Tracer.new_run () in
  let span layer name f =
    Tracer.span ~layer ~program:e.Registry.e_name ~config:"profile" ~run_id
      name f
  in
  span "ir" "Validate.check_module" (fun () -> Validate.check_module m);
  let samples =
    span "profiler" "Compiler.profile" (fun () ->
        Compiler.profile ~arch:mobile ~script:e.Registry.e_profile_script
          ~files:e.Registry.e_files m)
  in
  let verdicts = span "analysis" "Filter.analyze" (fun () -> Filter.analyze m) in
  let ratio = Arch.performance_ratio ~mobile ~server in
  let selection =
    span "estimator" "Static_estimate.run" (fun () ->
        Static_estimate.run m ~r:ratio ~bw_bps:Compiler.default_selection_bw
          verdicts samples)
  in
  let targets = selection.Static_estimate.targets in
  if targets = [] then raise (Compiler.No_profitable_target m.Ir.m_name);
  let output =
    span "transform" "Pipeline.run" (fun () ->
        Pipeline.run ~mobile ~server ~targets m)
  in
  Tracer.count "estimator.targets" (float_of_int (List.length targets));
  Tracer.count "transform.server_fns"
    (float_of_int output.Pipeline.o_stats.Pipeline.st_server_functions);
  let seeds =
    List.filter_map
      (fun name ->
        Option.map
          (fun (s : Profiler.sample) ->
            {
              Session.seed_name = name;
              seed_time_s =
                s.Profiler.s_time
                /. float_of_int (max 1 s.Profiler.s_invocations)
                *. e.Registry.e_eval_scale;
              seed_mem_bytes = s.Profiler.s_mem_bytes;
            })
          (Profiler.find_sample samples ~kind:Profiler.Func ~name))
      targets
  in
  {
    Compiler.c_original = m;
    c_output = output;
    c_samples = samples;
    c_verdicts = verdicts;
    c_selection = selection;
    c_seeds = seeds;
    c_ratio = ratio;
  }

let verify_compile ((e : Registry.entry), (c : Compiler.compiled)) =
  let what = e.Registry.e_name ^ ": composed compile" in
  match
    Check.guard what (fun () ->
        Compiler.compile ~profile_script:e.Registry.e_profile_script
          ~profile_files:e.Registry.e_files
          ~eval_scale:e.Registry.e_eval_scale (e.Registry.e_build ()))
  with
  | None -> ()
  | Some reference ->
    Check.expect
      (what ^ " selects other targets or seeds than Compiler.compile")
      (reference.Compiler.c_selection.Static_estimate.targets
       = c.Compiler.c_selection.Static_estimate.targets
      && reference.Compiler.c_seeds = c.Compiler.c_seeds)

let local_run (e : Registry.entry) ~script m =
  let r =
    Tracer.span ~layer:"exec" ~program:e.Registry.e_name ~config:"local"
      ~run_id:(Tracer.new_run ()) "Local_run.run" (fun () ->
        Local_run.run ~script ~files:e.Registry.e_files m)
  in
  Tracer.count "exec.instrs" (float_of_int r.Local_run.lr_instrs);
  r

let count_report (r : Session.report) =
  let c name v = Tracer.count name (float_of_int v) in
  c "runtime.offloads" r.Session.rep_offloads;
  c "runtime.refusals" r.rep_refusals;
  c "runtime.fnptr_translations" r.rep_fnptr_translations;
  c "runtime.remote_io_ops" r.rep_remote_io_ops;
  c "mem.page_faults" r.rep_faults;
  c "mem.prefetched_pages" r.rep_prefetched_pages;
  c "netsim.bytes_to_server" r.rep_bytes_to_server;
  c "netsim.bytes_to_mobile" r.rep_bytes_to_mobile;
  c "netsim.wire_bytes_to_mobile" r.rep_wire_bytes_to_mobile;
  c "fault.retries" r.rep_retries;
  c "fault.rpc_timeouts" r.rep_rpc_timeouts;
  c "fault.fallbacks" r.rep_fallbacks;
  c "migrate.checkpoints" r.rep_checkpoints;
  c "migrate.migrations_done" r.rep_migrations_done

(* One offloaded run.  Unless the caller brings its own sink, the run
   carries an aggregating metrics sink, as the Figure 6/7 harness's
   offloaded runs do. *)
let session ?trace ?(run_id = Tracer.new_run ()) (e : Registry.entry)
    ~config_name ~(config : Session.config) ~script (c : Compiler.compiled) =
  let span name f =
    Tracer.span ~layer:"runtime" ~program:e.Registry.e_name
      ~config:config_name ~run_id name f
  in
  let trace =
    match trace with
    | Some sink -> sink
    | None -> Trace.Metrics.sink (Trace.Metrics.create ())
  in
  let s =
    span "Session.create" (fun () ->
        Session.create
          ~config:{ config with Session.trace }
          ~script ~files:e.Registry.e_files c.Compiler.c_output
          ~seeds:c.Compiler.c_seeds)
  in
  let r = span "Session.run" (fun () -> Session.run s) in
  count_report r;
  r

(* A checked offloaded run: its output must equal the local run's. *)
let checked_session d e ~config_name ~config ~script ~local c =
  let what = e.Registry.e_name ^ "/" ^ config_name in
  match
    Check.guard what (fun () -> session e ~config_name ~config ~script c)
  with
  | None -> None
  | Some r ->
    Check.same_as_local what ~local r;
    Check.add_report d r;
    Some r

let sim_run ~config_name ~config clients =
  Tracer.span ~layer:"sched" ~config:config_name ~run_id:(Tracer.new_run ())
    "Sim.run" (fun () -> Sim.run ~config clients)

(* {1 Exact model outputs}

   Every workload reports the same five deterministic numbers, taken
   over the sessions of its pass: the error of the fast-network
   sessions' geomean speedup and battery saving against the paper's,
   the median and 99th percentile of the simulated time of the other
   sessions (a fleet client's runs from its due arrival), and the
   geomean of the faulted runs' simulated time over their clean runs',
   1 where a pass has no such pair. *)

let paper_speedup = 6.42  (* geomean whole-program speedup, fast network *)
let paper_battery_pct = 82.0  (* geomean battery saving, fast network *)

type model = {
  mutable fast : (float * float) list;
      (* fast-network sessions: local over session time, session over
         local energy *)
  mutable times : float list;  (* simulated time of the other sessions *)
  mutable faulted : float list;  (* faulted over clean simulated time *)
}

let model () = { fast = []; times = []; faulted = [] }

(* Record a session [r] of a program whose local run is [local].  With
   [clean], [r] ran under a fault plan and [clean] without one, and [r]
   counts only toward the recovery ratio. *)
let add_run m ?(fast = false) ?clean ~(local : Local_run.report)
    (r : Session.report) =
  let t = r.Session.rep_total_s in
  match clean with
  | Some (c : Session.report) ->
    m.faulted <- (t /. c.Session.rep_total_s) :: m.faulted
  | None ->
    m.times <- t :: m.times;
    if fast then
      m.fast <-
        ( local.Local_run.lr_total_s /. t,
          r.Session.rep_energy_mj /. local.Local_run.lr_energy_mj )
        :: m.fast

(* The pass's result: the exact outputs of [m], folded into [d] too. *)
let finish d m ~runs =
  let geomean = function [] -> nan | xs -> Experiment.geomean xs in
  let speedup = geomean (List.map fst m.fast) in
  let battery_pct = 100.0 *. (1.0 -. geomean (List.map snd m.fast)) in
  let times = Array.of_list m.times in
  Array.sort Float.compare times;
  let n = Array.length times in
  let rank p =
    if n = 0 then nan
    else times.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))
  in
  let sessions = Printf.sprintf "over %d sessions (nearest rank)" n in
  let exact =
    [
      ( "speedup_err_pct",
        100.0 *. Float.abs (speedup -. paper_speedup) /. paper_speedup,
        Printf.sprintf "geomean speedup %.3fx over %d fast-network sessions, \
                        paper %.2fx"
          speedup (List.length m.fast) paper_speedup );
      ( "battery_err_pp",
        Float.abs (battery_pct -. paper_battery_pct),
        Printf.sprintf "battery saving %.2f %%, paper %.1f %%" battery_pct
          paper_battery_pct );
      ("sim_p50_s", rank 0.50, sessions);
      ("sim_p99_s", rank 0.99, sessions);
      ( "sim_recovery_x",
        (if m.faulted = [] then 1.0 else geomean m.faulted),
        Printf.sprintf "geomean faulted/clean simulated time over %d runs"
          (List.length m.faulted) );
    ]
  in
  List.iter (fun (_, v, _) -> Check.add_float d v) exact;
  { digest = Check.hex d; runs; exact }

(* Check every client of a fleet run against the local run of its
   program, and fold the fleet's numbers into [d] and [m]. *)
let check_fleet d m ~fast ~oracle (result : Sim.result) =
  List.iter
    (fun (c : Sim.client_result) ->
      let local = oracle c.Sim.cr_workload in
      Check.same_as_local
        (Printf.sprintf "client %d (%s)" c.Sim.cr_id c.Sim.cr_workload)
        ~local c.Sim.cr_report;
      add_run m ~fast ~local c.Sim.cr_report;
      Check.add_report d c.Sim.cr_report;
      Check.add_float d c.Sim.cr_end_s;
      count_report c.Sim.cr_report)
    result.Sim.r_clients;
  let st = result.Sim.r_stats in
  List.iter (Check.add_int d)
    [ st.Server_load.st_admits; st.st_queued; st.st_rejects;
      st.st_peak_occupancy ];
  let c name v = Tracer.count name (float_of_int v) in
  c "sched.admits" st.Server_load.st_admits;
  c "sched.queued" st.st_queued;
  c "sched.rejects" st.st_rejects;
  c "sched.local_flips" (Sim.flipped_local result)

(* {1 Shared helpers} *)

let permute rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Local runs of the untransformed programs, the oracle every offloaded
   run of the same program and input is checked against. *)
let oracle_table ~script names =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun name ->
      if not (Hashtbl.mem tbl name) then
        let e = entry name in
        Hashtbl.replace tbl name (local_run e ~script:(script e) (build e)))
    names;
  fun name -> Hashtbl.find tbl name

let rng_of_seed seed = Rng.create (Int64.of_int seed)

(* {1 paper-eval: the Figure 6 sweep}

   Per program: a compile on the profile input, then the local baseline
   and the slow, fast and ideal offloaded runs on the held-out eval
   input.  The seed permutes program order. *)

let paper_eval ~seed ~smoke =
  let entries =
    if smoke then List.map entry [ "456.hmmer"; "300.twolf" ] else Registry.spec
  in
  let programs =
    List.map (fun e -> (e, build e)) (permute (rng_of_seed seed) entries)
  in
  let compiled = ref [] in
  let pass () =
    let d = Check.digest () and model = model () in
    compiled := [];
    List.iter
      (fun ((e : Registry.entry), m) ->
        let name = e.Registry.e_name in
        match Check.guard (name ^ ": compile") (fun () -> compile e m) with
        | None -> ()
        | Some c -> (
          compiled := (e, c) :: !compiled;
          Check.add_text d
            (String.concat "," c.Compiler.c_selection.Static_estimate.targets);
          let script = e.Registry.e_eval_script in
          match
            Check.guard (name ^ ": local run") (fun () -> local_run e ~script m)
          with
          | None -> ()
          | Some local ->
            Check.add_local d local;
            List.iter
              (fun (config_name, config) ->
                Option.iter
                  (add_run model ~fast:(config_name = "fast") ~local)
                  (checked_session d e ~config_name ~config ~script ~local c))
              [
                ("slow", Experiment.slow_config ());
                ("fast", Experiment.fast_config ());
                ("ideal", Experiment.ideal_config ());
              ]))
      programs;
    finish d model ~runs:(4 * List.length programs)
  in
  {
    summary =
      Printf.sprintf "%d programs: compile, local, slow, fast, ideal"
        (List.length programs);
    pass;
    verify = (fun () -> List.iter verify_compile !compiled);
  }

(* {1 fleet-open: an open loop of clients past saturation}

   Poisson arrivals in simulated time, so the generator is never late
   and a client's response time runs from its due arrival. *)

(* Arrivals per simulated second: 1.3 times what the pool serves.  At
   seed 1 the pool admits at most about 19 clients per simulated second
   (19.0 at 2,000 arrivals/s, 18.0 at 25/s); at 25/s it admits 71 % of
   the clients and queues 18 %, and refuses the rest. *)
let fleet_rate = 25.0

let fleet_open ~seed ~smoke =
  let n = if smoke then 200 else 10_000 in
  let rng = rng_of_seed seed in
  let t = ref 0.0 in
  let clients =
    Array.to_list
      (Array.init n (fun i ->
           t := !t -. (log (1.0 -. Rng.float rng) /. fleet_rate);
           {
             Sim.cl_id = i;
             cl_workload =
               (if Rng.int rng 3 = 0 then "fleet.micro.heavy" else "fleet.micro");
             cl_start_s = !t;
             cl_faults = None;
           }))
  in
  (* The simulator replays profile-scale inputs by default. *)
  let oracle =
    oracle_table
      ~script:(fun e -> e.Registry.e_profile_script)
      [ "fleet.micro"; "fleet.micro.heavy" ]
  in
  let pass () =
    let series = Series.create () in
    let config =
      { Sim.default_config with
        Sim.s_load =
          { Server_load.default with Server_load.slots = 2; queue_cap = 2 };
        s_servers = 4;
        s_policy = Pool.Least_loaded;
        s_record_events = false;
        s_global_sink = Some (Series.sink series) }
    in
    let d = Check.digest () and m = model () in
    Option.iter
      (fun result ->
        Tracer.span ~layer:"bench" "check" (fun () ->
            check_fleet d m ~fast:true ~oracle result;
            List.iter
              (fun (k, v) -> Check.add_text d (k ^ "=" ^ v))
              (Trace.Metrics.to_rows (Series.totals series))))
      (Check.guard "fleet-open: Sim.run" (fun () ->
           sim_run ~config_name:"fleet" ~config clients));
    finish d m ~runs:n
  in
  {
    summary =
      Printf.sprintf
        "%d clients, Poisson %.0f/s, 4 servers x 2 slots, queue 2, least-loaded"
        n fleet_rate;
    pass;
    verify = ignore;
  }

(* {1 faults-recovery: seeded fault plans and migration scenarios} *)

(* Four plans timed relative to the clean run's simulated length [t]. *)
let fault_plans rng t =
  let u lo hi = lo +. ((hi -. lo) *. Rng.float rng) in
  let plan_seed = Rng.next rng in
  let base = { Plan.empty with Plan.seed = plan_seed } in
  let out_from = u 0.1 0.6 *. t in
  let out_len = u 0.05 0.3 *. t in
  let crash_at = u 0.1 0.9 *. t in
  let drop_p = u 0.02 0.15 in
  let col_at = u 0.1 0.7 *. t in
  let col_factor = u 0.01 0.1 in
  [
    ( "outage",
      { base with
        Plan.outages =
          [ { Plan.out_from_s = out_from; out_until_s = out_from +. out_len } ] }
    );
    ("crash", { base with Plan.crash_at_s = Some crash_at });
    ("drop", { base with Plan.drop_p });
    ( "collapse",
      { base with
        Plan.collapse = Some { Plan.col_at_s = col_at; col_factor } } );
  ]

let faults_recovery ~seed ~smoke =
  let entries =
    if smoke then List.map entry [ "456.hmmer"; "300.twolf" ] else Registry.spec
  in
  let rounds = if smoke then 1 else 2 in
  let rng = rng_of_seed seed in
  let fast = Experiment.fast_config () in
  let programs =
    List.filter_map
      (fun (e : Registry.entry) ->
        Check.guard (e.Registry.e_name ^ ": set-up") (fun () ->
            let m = build e in
            let c = compile e m in
            let script = e.Registry.e_profile_script in
            let local = local_run e ~script m in
            let clean = session e ~config_name:"clean" ~config:fast ~script c in
            Check.same_as_local (e.Registry.e_name ^ "/clean") ~local clean;
            let plans =
              List.init rounds (fun _ ->
                  fault_plans rng clean.Session.rep_total_s)
            in
            (e, c, local, plans)))
      entries
  in
  let scenarios =
    List.concat_map
      (fun name ->
        List.map
          (fun migrate ->
            ( name ^ (if migrate then "/migrate" else "/replay"),
              Sim.scenario ~migrate name ))
          [ true; false ])
      Sim.scenario_names
  in
  let oracle =
    oracle_table
      ~script:(fun e -> e.Registry.e_profile_script)
      (List.concat_map
         (fun (_, sc) ->
           List.map (fun cl -> cl.Sim.cl_workload) sc.Sim.sc_clients)
         scenarios)
  in
  let pass () =
    let d = Check.digest () and m = model () in
    for round = 0 to rounds - 1 do
      List.iter
        (fun ((e : Registry.entry), c, local, plans) ->
          let script = e.Registry.e_profile_script in
          match
            checked_session d e ~config_name:"clean" ~config:fast ~script ~local
              c
          with
          | None -> ()
          | Some clean ->
            add_run m ~fast:true ~local clean;
            List.iter
              (fun (kind, plan) ->
                Tracer.count "fault.runs" 1.0;
                Option.iter (add_run m ~clean ~local)
                  (checked_session d e ~config_name:kind
                     ~config:{ fast with Session.faults = Some plan }
                     ~script ~local c))
              (List.nth plans round))
        programs;
      List.iter
        (fun (config_name, sc) ->
          Option.iter (check_fleet d m ~fast:false ~oracle)
            (Check.guard ("scenario " ^ config_name) (fun () ->
                 sim_run ~config_name ~config:sc.Sim.sc_config
                   sc.Sim.sc_clients)))
        scenarios
    done;
    finish d m
      ~runs:
        (rounds
        * ((5 * List.length programs)
          + List.fold_left
              (fun acc (_, sc) -> acc + List.length sc.Sim.sc_clients)
              0 scenarios))
  in
  {
    summary =
      Printf.sprintf
        "%d round(s) of %d programs x (clean + 4 fault plans) + %d scenario runs"
        rounds (List.length programs) (List.length scenarios);
    pass;
    verify = ignore;
  }

(* {1 trace-analyze: encode, decode and analyse captured traces} *)

type capture = {
  cap_entry : Registry.entry;
  cap_run_id : int;
  cap_events : (float * Trace.event) list;
  cap_metrics : Trace.Metrics.t;
}

(* Everything a round derives from one trace, compared across rounds. *)
type analysis = {
  a_text : string;
  a_flame : string;
  a_audit : Audit.summary;
  a_totals : (string * string) list;
  a_slo : Slo.verdict list;
}

let trace_analyze ~seed ~smoke =
  let names =
    if smoke then [ "445.gobmk"; "464.h264ref" ]
    else [ "458.sjeng"; "445.gobmk"; "464.h264ref" ]
  in
  let rounds = if smoke then 1 else 12 in
  let objectives =
    match Slo.parse Slo.default_spec with
    | Ok o -> o
    | Error msg -> failwith msg
  in
  (* The captured sessions are the pass's only simulated runs. *)
  let captured = model () in
  let captures =
    List.filter_map
      (fun name ->
        let e = entry name in
        Check.guard (name ^ ": capture") (fun () ->
            let m = build e in
            let c = compile e m in
            let script = e.Registry.e_eval_script in
            let local = local_run e ~script m in
            let ring = Trace.Ring.create ~capacity:(1 lsl 17) () in
            let metrics = Trace.Metrics.create () in
            let run_id = Tracer.new_run () in
            let r =
              session e ~run_id ~config_name:"fast"
                ~trace:
                  (Trace.fan_out
                     [ Trace.Ring.sink ring; Trace.Metrics.sink metrics ])
                ~config:(Experiment.fast_config ()) ~script c
            in
            Check.same_as_local (name ^ "/capture") ~local r;
            add_run captured ~fast:true ~local r;
            Check.expect (name ^ ": capture ring overflowed")
              (Trace.Ring.dropped ring = 0);
            {
              cap_entry = e;
              cap_run_id = run_id;
              cap_events = Trace.Ring.events ring;
              cap_metrics = metrics;
            }))
      names
  in
  let captures = permute (rng_of_seed seed) captures in
  let analyse cap =
    let name = cap.cap_entry.Registry.e_name in
    let span layer fn f =
      Tracer.span ~layer ~program:name ~config:"analyze" ~run_id:cap.cap_run_id
        fn f
    in
    let text =
      span "trace" "Trace_file.to_string" (fun () ->
          Trace_file.to_string cap.cap_events)
    in
    let decoded =
      span "trace" "Trace_file.of_string" (fun () -> Trace_file.of_string text)
    in
    Tracer.count "trace.events" (float_of_int (List.length cap.cap_events));
    Tracer.count "trace.bytes" (float_of_int (String.length text));
    match decoded with
    | Error msg ->
      Check.expect (name ^ ": decode: " ^ msg) false;
      None
    | Ok events ->
      let tree = span "obs" "Span.of_events" (fun () -> Span.of_events events) in
      let audit =
        span "obs" "Audit.of_events" (fun () ->
            Audit.summarize (Audit.of_events events))
      in
      let flame = span "obs" "Flame.to_collapsed" (fun () -> Flame.to_collapsed tree) in
      let series = span "obs" "Series.of_events" (fun () -> Series.of_events events) in
      let slo = span "obs" "Slo.evaluate" (fun () -> Slo.evaluate objectives series) in
      span "bench" "check" (fun () ->
          Check.expect (name ^ ": decoded trace differs from the captured one")
            (compare events cap.cap_events = 0);
          let totals = Trace.Metrics.to_rows (Series.totals series) in
          Check.expect (name ^ ": series totals differ from the live metrics")
            (totals = Trace.Metrics.to_rows cap.cap_metrics);
          Some
            {
              a_text = text;
              a_flame = flame;
              a_audit = audit;
              a_totals = totals;
              a_slo = slo;
            })
  in
  let pass () =
    let d = Check.digest () in
    let first = Hashtbl.create 4 in
    for _ = 1 to rounds do
      List.iter
        (fun cap ->
          let name = cap.cap_entry.Registry.e_name in
          Option.iter
            (fun a ->
              match Hashtbl.find_opt first name with
              | Some a0 ->
                Tracer.span ~layer:"bench" "check" (fun () ->
                    Check.expect (name ^ ": analysis differs between rounds")
                      (compare a a0 = 0))
              | None ->
                Hashtbl.replace first name a;
                Check.add_text d a.a_text;
                Check.add_text d a.a_flame;
                let s = a.a_audit in
                List.iter (Check.add_int d)
                  [ s.Audit.s_estimates; s.s_true_pos; s.s_false_pos;
                    s.s_true_neg; s.s_false_neg; s.s_unverified ];
                Check.add_float d s.Audit.s_mean_abs_err_s;
                Check.add_float d s.Audit.s_mean_rel_err;
                List.iter (fun (k, v) -> Check.add_text d (k ^ "=" ^ v)) a.a_totals;
                List.iter
                  (fun v ->
                    Check.add_text d v.Slo.v_label;
                    Check.add_float d v.Slo.v_value)
                  a.a_slo)
            (analyse cap))
        captures
    done;
    finish d captured ~runs:(rounds * List.length captures)
  in
  {
    summary =
      Printf.sprintf "%d round(s) over %s: encode, decode, span tree, audit, \
                      flame, series, SLO"
        rounds
        (String.concat ", "
           (List.map
              (fun c ->
                Printf.sprintf "%s (%d events)" c.cap_entry.Registry.e_name
                  (List.length c.cap_events))
              captures));
    pass;
    verify = ignore;
  }

let all =
  [
    { name = "paper-eval"; setup = paper_eval };
    { name = "fleet-open"; setup = fleet_open };
    { name = "faults-recovery"; setup = faults_recovery };
    { name = "trace-analyze"; setup = trace_analyze };
  ]
