(* Deterministic discrete-event simulation of N mobile clients against
   a pool of offload servers.

   Each client is a complete offloading session (its own mobile host,
   link, battery and clock, starting at a configurable global offset);
   the shared state is the server pool — K independent Server_load
   machines fronted by a routing policy (Pool).  A session only
   touches shared state at three points — the load query behind a
   dynamic-estimation decision, the admission request, the slot
   release — so the simulation suspends a client exactly there, with
   the client's *global* time (start offset + session clock), and
   always resumes the suspended client with the smallest global time
   (ties broken by client id, then arrival order).  Shared state is
   therefore read and written in global-time order: a conservative
   discrete-event simulation.

   Suspension is an OCaml effect: the per-client server handle
   performs [Sync g] before (load, request) or after (release)
   touching shared state.  The effect handler does *not* resume the
   next client itself — it pushes the captured continuation into a
   binary-heap event queue (Event_queue, O(log n) per operation) and
   returns, unwinding to a flat driver loop that pops and runs one
   continuation at a time.  Native stack depth therefore stays O(1) in
   the fleet size where the old nested run_next scheduler grew a stack
   frame per suspended client — the difference between 8 clients and
   10^4.

   Between suspension points a client runs to completion — in
   particular an admitted offload runs all the way to its release
   (finalizing the slot's exact free instant on its server) before any
   later-arriving request is examined, which is what lets Server_load
   compute FIFO waits from exact release times instead of hold
   estimates.

   Offload-span latencies stream into an Obs.Hist as sessions run, so
   fleet-scale sweeps never materialize per-event lists; full
   per-client traces (Ring buffers) are kept only while
   [s_record_events] is on — the default, for tests; telemetry
   ([serve], the fleet benches) turns it off and streams through
   [s_global_sink].

   Everything is deterministic: same client mix, same stagger, same
   policy, same fault seeds — byte-identical trace streams and
   rendered tables. *)

module Link = No_netsim.Link
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment
module Trace = No_trace.Trace
module Fault_plan = No_fault.Plan
module Table = No_report.Table
module Hist = No_obs.Hist

type client = {
  cl_id : int;
  cl_workload : string;            (* registry entry name *)
  cl_start_s : float;              (* global arrival offset *)
  cl_faults : Fault_plan.t option; (* per-client fault schedule *)
}

(* Which console input each session replays.  Profile inputs are the
   small training runs — cheap enough for tests and CI sweeps; Eval
   replays the paper's evaluation inputs. *)
type scale = Profile | Eval

type config = {
  s_load : Server_load.config;     (* every pool member's config *)
  s_servers : int;                 (* pool size K *)
  s_members : Server_load.config array option;
                                   (* heterogeneous pool: one config per
                                      member, overriding s_load/s_servers *)
  s_policy : Pool.policy;          (* placement policy *)
  s_schedule : Pool.maintenance list; (* static member down windows *)
  s_migrate : bool;                (* sessions checkpoint + migrate on a
                                      lost member; false = rollback and
                                      replay locally (the old behaviour) *)
  s_link : Link.t;
  s_scale : scale;
  s_record_events : bool;          (* keep full per-client traces *)
  s_global_sink : Trace.sink option;
                                   (* extra fleet-wide sink fed every
                                      client's events on the *global*
                                      clock (cl_start_s added) as they
                                      stream — telemetry without rings *)
  s_sampler : Trace.Sampler.t option;
                                   (* tail-based sampler: each client
                                      streams into its own per-client
                                      view; [run] flushes trailing
                                      tasks before returning *)
}

let default_config =
  {
    s_load = Server_load.default;
    s_servers = 1;
    s_members = None;
    s_policy = Pool.Round_robin;
    s_schedule = [];
    s_migrate = true;
    s_link = Link.fast_wifi;
    s_scale = Profile;
    s_record_events = true;
    s_global_sink = None;
    s_sampler = None;
  }

let make_clients ?(stagger_s = 0.05) ?faults ~workloads ~count () =
  if workloads = [] then invalid_arg "Sim.make_clients: no workloads";
  if count < 1 then invalid_arg "Sim.make_clients: count < 1";
  let mix = Array.of_list workloads in
  let m = Array.length mix in
  List.init count (fun i ->
      {
        cl_id = i;
        cl_workload = mix.(i mod m);
        cl_start_s = stagger_s *. float_of_int i;
        cl_faults =
          Option.map
            (fun plan ->
              Fault_plan.with_seed plan
                (Int64.add plan.Fault_plan.seed (Int64.of_int i)))
            faults;
      })

type client_result = {
  cr_id : int;
  cr_workload : string;
  cr_start_s : float;
  cr_report : Session.report;
  cr_local_s : float;    (* the same program + input run locally *)
  cr_speedup : float;    (* local time / offloaded-session time *)
  cr_end_s : float;      (* global completion instant *)
  cr_events : (float * Trace.event) list;  (* session-local timestamps;
                                              [] unless recording *)
}

type result = {
  r_clients : client_result list;
  r_policy : Pool.policy;
  r_makespan_s : float;
  r_throughput : float;            (* clients completed / makespan *)
  r_stats : Server_load.stats;     (* pool totals *)
  r_server_stats : Server_load.stats array;  (* per member, by id *)
  r_latency : Hist.t;              (* streamed offload-span latencies *)
  r_events : int;                  (* trace events emitted fleet-wide *)
}

(* {1 The scheduler} *)

type _ Effect.t += Sync : float -> unit Effect.t

let run ?(config = default_config) (clients : client list) : result =
  if clients = [] then invalid_arg "Sim.run: no clients";
  let pool =
    match config.s_members with
    | Some members ->
      Pool.create_hetero ~policy:config.s_policy ~schedule:config.s_schedule
        members
    | None ->
      Pool.create ~policy:config.s_policy ~schedule:config.s_schedule
        ~servers:config.s_servers config.s_load
  in
  (* Can any session lose its server mid-offload?  A maintenance
     schedule can drain anyone; a fault plan on any client can crash a
     member and quarantine it under everyone.  If so, every session
     must snapshot at offload start. *)
  let volatile =
    Pool.volatile pool
    || List.exists (fun cl -> cl.cl_faults <> None) clients
  in
  (* Suspended-client continuations, keyed (global time, client id,
     arrival order) in a binary heap — O(log n) per suspension. *)
  let queue : (unit -> unit) Event_queue.t = Event_queue.create () in
  let sync time = Effect.perform (Sync time) in
  (* The session's only view of the pool: every closure converts the
     session clock to global time and suspends, so shared state is
     touched in global order.  The release records the slot's free
     instant *before* suspending — by the time any later request runs,
     the booking is final. *)
  let handle_of (cl : client) : Session.server_handle =
    let glob now = cl.cl_start_s +. now in
    {
      Session.sh_load =
        (fun ~now ->
          sync (glob now);
          Pool.load pool ~client:cl.cl_id ~now:(glob now));
      Session.sh_request =
        (fun ~now ~target ->
          sync (glob now);
          Pool.request pool ~client:cl.cl_id ~now:(glob now) ~target);
      Session.sh_release =
        (fun ~now ~server ~slot ->
          Pool.release pool ~server ~now:(glob now) ~slot;
          sync (glob now));
      Session.sh_volatile = volatile;
      (* Health probe at every exchange.  No [sync]: it runs between
         suspension points, where the client must run to completion —
         and needs none, because schedule health is a pure function of
         time and quarantines only ever tighten. *)
      Session.sh_interrupt =
        (fun ~now ~server -> Pool.down_reason pool ~server ~now:(glob now));
      (* Re-admission for a checkpointed task.  A crash observation
         takes the member out for the rest of the run — every other
         client discovers that at its next exchange and migrates off
         it too.  Scheduled drains are not quarantined: the member
         comes back when its window closes. *)
      Session.sh_migrate =
        (fun ~now ~target ~from_server ~crashed ->
          sync (glob now);
          if crashed then
            Pool.quarantine pool ~server:from_server ~reason:"crashed";
          Pool.request_excluding pool ~client:cl.cl_id ~now:(glob now)
            ~target ~exclude:from_server);
    }
  in
  (* Compile once per distinct workload; the local baseline shares the
     compiled program and the session's input. *)
  let compiled_cache = Hashtbl.create 4 in
  let compiled_of name =
    match Hashtbl.find_opt compiled_cache name with
    | Some c -> c
    | None ->
      let entry =
        match Registry.by_name name with
        | Some e -> e
        | None -> invalid_arg ("Sim.run: unknown workload " ^ name)
      in
      let compiled = Compiler.compile_entry entry in
      Hashtbl.replace compiled_cache name (entry, compiled);
      (entry, compiled)
  in
  let script_of (entry : Registry.entry) =
    match config.s_scale with
    | Profile -> entry.Registry.e_profile_script
    | Eval -> entry.Registry.e_eval_script
  in
  let local_cache = Hashtbl.create 4 in
  let local_of name =
    match Hashtbl.find_opt local_cache name with
    | Some s -> s
    | None ->
      let entry, compiled = compiled_of name in
      let r =
        Local_run.run ~script:(script_of entry) ~files:entry.Registry.e_files
          compiled.Compiler.c_original
      in
      Hashtbl.replace local_cache name r.Local_run.lr_total_s;
      r.Local_run.lr_total_s
  in
  let clients = Array.of_list clients in
  let n = Array.length clients in
  Array.iter
    (fun cl ->
      ignore (compiled_of cl.cl_workload);
      ignore (local_of cl.cl_workload))
    clients;
  (* Offload latencies stream into one histogram as sessions emit
     Offload_end; bucket counts are order-independent, so the
     interleaving cannot perturb the result. *)
  let latency = Hist.create () in
  let event_count = ref 0 in
  let stream_sink ~ts:_ (ev : Trace.event) =
    incr event_count;
    match ev with
    | Trace.Offload_end { span_s; _ } -> Hist.add latency span_s
    | _ -> ()
  in
  let results = Array.make n None in
  let client_main idx (cl : client) () =
    let entry, compiled = compiled_of cl.cl_workload in
    let ring =
      if config.s_record_events then Some (Trace.Ring.create ()) else None
    in
    let sinks =
      (match ring with None -> [] | Some r -> [ Trace.Ring.sink r ])
      @ [ stream_sink ]
      @ (match config.s_global_sink with
        | None -> []
        | Some global ->
          (* Re-stamp onto the global clock as events stream, so the
             fleet-wide consumer (SLO series, telemetry) never needs the
             per-client rings.  The wrapper only rewrites the
             timestamp. *)
          [ (fun ~ts ev -> global ~ts:(cl.cl_start_s +. ts) ev) ])
      @
      match config.s_sampler with
      | None -> []
      | Some sampler ->
        (* The sampler's per-client view does its own global-clock
           re-stamping from start_s. *)
        [ Trace.Sampler.client_sink sampler ~client:cl.cl_id
            ~start_s:cl.cl_start_s ]
    in
    let sink =
      match sinks with [ one ] -> one | many -> Trace.fan_out many
    in
    let cfg =
      { (Session.default_config ~link:config.s_link ()) with
        Session.trace = sink;
        Session.server_handle = Some (handle_of cl);
        Session.faults = cl.cl_faults;
        Session.migrate = config.s_migrate }
    in
    let session =
      Session.create ~config:cfg ~script:(script_of entry)
        ~files:entry.Registry.e_files compiled.Compiler.c_output
        ~seeds:compiled.Compiler.c_seeds
    in
    let report = Session.run session in
    (* Free this client's sampler buffer while the fleet still runs. *)
    (match config.s_sampler with
    | Some sampler -> Trace.Sampler.close_client sampler ~client:cl.cl_id
    | None -> ());
    results.(idx) <- Some (report, ring)
  in
  (* The flat driver.  The effect handler never resumes anyone: it
     pushes the continuation and unwinds, so the native stack holds at
     most one client at any instant regardless of fleet size. *)
  Array.iteri
    (fun idx cl ->
      Event_queue.push queue ~time:cl.cl_start_s ~id:cl.cl_id (fun () ->
          Effect.Deep.match_with (client_main idx cl) ()
            {
              Effect.Deep.retc = (fun () -> ());
              exnc = raise;
              effc =
                (fun (type a) (eff : a Effect.t) ->
                  match eff with
                  | Sync time ->
                    Some
                      (fun (k : (a, _) Effect.Deep.continuation) ->
                        Event_queue.push queue ~time ~id:cl.cl_id
                          (fun () -> Effect.Deep.continue k ()))
                  | _ -> None);
            }))
    clients;
  let rec drive () =
    match Event_queue.pop queue with
    | None -> ()
    | Some thunk ->
      thunk ();
      drive ()
  in
  drive ();
  (* Decide the fate of every client's trailing in-flight task before
     anyone reads kept counts. *)
  Option.iter Trace.Sampler.flush config.s_sampler;
  let client_results =
    Array.to_list
      (Array.mapi
         (fun idx cl ->
           match results.(idx) with
           | None -> failwith "Sim.run: client never completed"
           | Some (report, ring) ->
             let local_s = local_of cl.cl_workload in
             {
               cr_id = cl.cl_id;
               cr_workload = cl.cl_workload;
               cr_start_s = cl.cl_start_s;
               cr_report = report;
               cr_local_s = local_s;
               cr_speedup = local_s /. report.Session.rep_total_s;
               cr_end_s = cl.cl_start_s +. report.Session.rep_total_s;
               cr_events =
                 (match ring with
                 | None -> []
                 | Some r -> Trace.Ring.events r);
             })
         clients)
  in
  let makespan =
    List.fold_left (fun acc c -> Float.max acc c.cr_end_s) 0.0 client_results
  in
  {
    r_clients = client_results;
    r_policy = config.s_policy;
    r_makespan_s = makespan;
    r_throughput = float_of_int n /. makespan;
    r_stats = Pool.total_stats pool;
    r_server_stats = Pool.stats pool;
    r_latency = latency;
    r_events = !event_count;
  }

(* {1 Derived views} *)

let geomean_speedup result =
  Experiment.geomean (List.map (fun c -> c.cr_speedup) result.r_clients)

(* Clients the scheduler pushed back to local execution: at least one
   task refused by the load-aware estimator or bounced off the full
   admission queue. *)
let flipped_local result =
  List.length
    (List.filter
       (fun c ->
         c.cr_report.Session.rep_refusals > 0
         || c.cr_report.Session.rep_rejects > 0)
       result.r_clients)

(* Fleet-wide recovery totals: checkpoints cut, migrations shipped /
   completed, and the offloads that still fell back to local replay. *)
let migration_totals result =
  List.fold_left
    (fun (ck, started, done_, fb) c ->
      ( ck + c.cr_report.Session.rep_checkpoints,
        started + c.cr_report.Session.rep_migrations,
        done_ + c.cr_report.Session.rep_migrations_done,
        fb + c.cr_report.Session.rep_fallbacks ))
    (0, 0, 0, 0) result.r_clients

(* One merged fleet-wide stream on the global clock: every client's
   session-local trace shifted by its start instant, then stably
   sorted by timestamp (client order breaks ties, so seeded reruns
   interleave identically).  Empty unless the run recorded events. *)
let global_events result =
  List.concat_map
    (fun c ->
      List.map (fun (ts, ev) -> (c.cr_start_s +. ts, ev)) c.cr_events)
    result.r_clients
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)

(* Histogram-backed nearest-rank percentile of the streamed offload
   spans; 0.0 when no offload completed (the old empty-list
   behaviour). *)
let latency_percentile result ~p =
  if Hist.count result.r_latency = 0 then 0.0
  else Hist.quantile result.r_latency (p /. 100.0)

(* Global-time [admit, release] intervals of admitted offloads, tagged
   with the admitting server — on both the success and the fallback
   path the release coincides with the Offload_end stamp, so at no
   instant may more than [slots] intervals of one server overlap (the
   scheduler tests sweep this invariant per server).  Needs a run with
   [s_record_events] on. *)
let admitted_intervals result =
  List.concat_map
    (fun c ->
      let rec scan acc pending = function
        | [] -> List.rev acc
        | (ts, Trace.Admit { server; _ }) :: rest ->
          scan acc (Some (server, ts)) rest
        | (ts, Trace.Offload_end _) :: rest -> (
          match pending with
          | Some (server, t0) ->
            scan
              ((server, c.cr_start_s +. t0, c.cr_start_s +. ts) :: acc)
              None rest
          | None -> scan acc None rest)
        | _ :: rest -> scan acc pending rest
      in
      scan [] None c.cr_events)
    result.r_clients

(* {1 Migration scenarios}

   The canonical fleet situations the checkpoint/migration machinery
   exists for, shared by the CLI ([serve --migrate]) and the bench
   lane.  All constants are simulated seconds; every scenario is
   deterministic, so seeded reruns render byte-identically. *)

type scenario = {
  sc_name : string;
  sc_title : string;       (* one-line description for reports *)
  sc_config : config;
  sc_clients : client list;
}

let scenario_names = [ "failover"; "maintenance"; "rebalance" ]

let scenario ?(policy = Pool.Round_robin) ?(migrate = true) name =
  let base =
    { default_config with s_policy = policy; s_migrate = migrate }
  in
  match name with
  | "failover" ->
    (* Mid-flight crash with healthy siblings: client 0's granting
       member dies partway through its offload loop; the checkpoint
       ships to another member and the task finishes there.  Other
       clients discover the quarantined member at their next exchange
       and migrate off it too. *)
    let crash =
      { Fault_plan.empty with Fault_plan.crash_at_s = Some 0.05 }
    in
    let clients =
      List.map
        (fun cl ->
          if cl.cl_id = 0 then { cl with cl_faults = Some crash } else cl)
        (make_clients ~stagger_s:0.02
           ~workloads:[ "164.gzip"; "429.mcf" ] ~count:4 ())
    in
    {
      sc_name = name;
      sc_title = "server crash mid-offload, failover to a healthy member";
      sc_config = { base with s_servers = 3 };
      sc_clients = clients;
    }
  | "maintenance" ->
    (* Rolling maintenance: each member of a three-server pool is
       drained for a window in turn.  Offloads running on the drained
       member checkpoint and migrate; the member returns when its
       window closes. *)
    let schedule =
      [
        { Pool.mw_server = 0; mw_from_s = 0.05; mw_until_s = 0.45;
          mw_reason = "maintenance" };
        { Pool.mw_server = 1; mw_from_s = 0.45; mw_until_s = 0.85;
          mw_reason = "maintenance" };
        { Pool.mw_server = 2; mw_from_s = 0.85; mw_until_s = 1.25;
          mw_reason = "maintenance" };
      ]
    in
    {
      sc_name = name;
      sc_title = "rolling maintenance drains each pool member in turn";
      sc_config = { base with s_servers = 3; s_schedule = schedule };
      sc_clients =
        make_clients ~stagger_s:0.02
          ~workloads:[ "164.gzip"; "429.mcf" ] ~count:6 ();
    }
  | "rebalance" ->
    (* Cost-driven rebalancing on a heterogeneous pool: the expensive
       fast member (2x speed grade) is drained mid-run; tasks running
       on it migrate to the cheap baseline members. *)
    let members =
      [|
        { Server_load.default with Server_load.r_factor = 2.0 };
        Server_load.default;
        Server_load.default;
      |]
    in
    let schedule =
      [
        { Pool.mw_server = 0; mw_from_s = 0.06; mw_until_s = 1.0e9;
          mw_reason = "rebalance" };
      ]
    in
    {
      sc_name = name;
      sc_title =
        "cost rebalancing drains the expensive fast member of a \
         heterogeneous pool";
      sc_config =
        { base with
          s_members = Some members;
          s_policy =
            (* route by load so the fast member actually carries work
               before the drain *)
            (match policy with Pool.Round_robin -> Pool.Least_loaded | p -> p);
          s_schedule = schedule };
      sc_clients =
        make_clients ~stagger_s:0.02
          ~workloads:[ "164.gzip"; "429.mcf" ] ~count:6 ();
    }
  | _ ->
    invalid_arg
      (Printf.sprintf "Sim.scenario: unknown scenario %S (expected %s)" name
         (String.concat ", " scenario_names))

(* {1 Rendering} *)

let render ?(title = "multi-client schedule") result : string =
  let tbl =
    Table.create ~title
      [ "client"; "workload"; "start s"; "offloads"; "refusals"; "queued";
        "rejects"; "wait s"; "total s"; "speedup" ]
  in
  List.iter
    (fun c ->
      Table.add_row tbl
        [
          Table.cell_i c.cr_id;
          c.cr_workload;
          Table.cell_f ~digits:3 c.cr_start_s;
          Table.cell_i c.cr_report.Session.rep_offloads;
          Table.cell_i c.cr_report.Session.rep_refusals;
          Table.cell_i c.cr_report.Session.rep_queued;
          Table.cell_i c.cr_report.Session.rep_rejects;
          Table.cell_f ~digits:4 c.cr_report.Session.rep_queue_wait_s;
          Table.cell_f ~digits:4 c.cr_report.Session.rep_total_s;
          Table.cell_f ~digits:3 c.cr_speedup;
        ])
    result.r_clients;
  let servers =
    let tbl =
      Table.create ~title:"server pool"
        [ "server"; "policy"; "admits"; "queued"; "rejects"; "peak occ" ]
    in
    Array.iteri
      (fun id (st : Server_load.stats) ->
        Table.add_row tbl
          [
            Table.cell_i id;
            Pool.policy_to_string result.r_policy;
            Table.cell_i st.Server_load.st_admits;
            Table.cell_i st.Server_load.st_queued;
            Table.cell_i st.Server_load.st_rejects;
            Table.cell_i st.Server_load.st_peak_occupancy;
          ])
      result.r_server_stats;
    Table.render tbl
  in
  let st = result.r_stats in
  let base =
    Printf.sprintf
      "%s\n\
       geomean speedup %.3f | makespan %.4f s | throughput %.3f clients/s\n\
       pool (%d server%s, %s): %d admits, %d queued, %d rejects, peak \
       occupancy %d\n\
       %s\n\
       offload latency p50 %.4f s, p95 %.4f s, p99 %.4f s"
      (Table.render tbl) (geomean_speedup result) result.r_makespan_s
      result.r_throughput
      (Array.length result.r_server_stats)
      (if Array.length result.r_server_stats = 1 then "" else "s")
      (Pool.policy_to_string result.r_policy)
      st.Server_load.st_admits st.Server_load.st_queued
      st.Server_load.st_rejects st.Server_load.st_peak_occupancy servers
      (latency_percentile result ~p:50.0)
      (latency_percentile result ~p:95.0)
      (latency_percentile result ~p:99.0)
  in
  (* Recovery line only when something was recovered — a clean run
     renders byte-identically to the pre-migration scheduler. *)
  match migration_totals result with
  | 0, _, _, 0 -> base
  | checkpoints, started, completed, fallbacks ->
    Printf.sprintf
      "%s\nrecovery: %d checkpoint%s, %d migration%s started, %d completed, \
       %d local replay%s"
      base checkpoints
      (if checkpoints = 1 then "" else "s")
      started
      (if started = 1 then "" else "s")
      completed fallbacks
      (if fallbacks = 1 then "" else "s")
