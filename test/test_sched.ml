(* Multi-client scheduler tests: the Server_load admission/contention
   model in isolation, the session-level server handle driven by stub
   handles, and the discrete-event simulator's headline guarantees —
   byte-identical reruns, the worker-slot bound as a QCheck property
   over random fleets, and monotone speedup degradation with clients
   flipping back to local under saturation. *)

module Link = No_netsim.Link
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Server_load = No_sched.Server_load
module Pool = No_sched.Pool
module Event_queue = No_sched.Event_queue
module Sim = No_sched.Sim

let close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

(* {1 Server_load units} *)

let test_scale_curves () =
  let cfg = Server_load.default in
  close "r_scale exclusive" 1.0 (Server_load.r_scale cfg ~occupancy:1);
  close "bw_scale exclusive" 1.0 (Server_load.bw_scale ~occupancy:1);
  close "r_scale closed form at occupancy 3"
    (1.0 /. (1.0 +. (Server_load.alpha *. 2.0)))
    (Server_load.r_scale cfg ~occupancy:3);
  for m = 1 to 7 do
    Alcotest.(check bool) "r_scale strictly decreasing" true
      (Server_load.r_scale cfg ~occupancy:(m + 1)
      < Server_load.r_scale cfg ~occupancy:m);
    Alcotest.(check bool) "bw_scale strictly decreasing" true
      (Server_load.bw_scale ~occupancy:(m + 1)
      < Server_load.bw_scale ~occupancy:m)
  done

(* One slot, queue of one: the driver protocol (request, run to
   release, next request) exercises admit, exact-wait queueing, and
   rejection in sequence. *)
let test_admission_queue_reject () =
  let cfg =
    { Server_load.default with Server_load.slots = 1; queue_cap = 1 }
  in
  let t = Server_load.create cfg in
  (match Server_load.request t ~now:0.0 ~target:"a" with
  | Session.Admitted { wait_s; occupancy; slot; _ } ->
    close "first request admits at once" 0.0 wait_s;
    Alcotest.(check int) "exclusive occupancy" 1 occupancy;
    Server_load.release t ~now:1.0 ~slot
  | Session.Rejected _ -> Alcotest.fail "first request rejected");
  (* Arrives at 0.5 while the slot is booked until 1.0: queued with
     the exact wait, not an estimate. *)
  (match Server_load.request t ~now:0.5 ~target:"b" with
  | Session.Admitted { wait_s; occupancy; slot; queue_depth; _ } ->
    close "FIFO wait is release - arrival" 0.5 wait_s;
    Alcotest.(check int) "queued request starts exclusive" 1 occupancy;
    Alcotest.(check int) "no earlier waiters" 0 queue_depth;
    Server_load.release t ~now:2.0 ~slot
  | Session.Rejected _ -> Alcotest.fail "queueable request rejected");
  (* Arrives at 0.6 behind the queued waiter: the queue is full. *)
  (match Server_load.request t ~now:0.6 ~target:"c" with
  | Session.Admitted _ -> Alcotest.fail "over-capacity request admitted"
  | Session.Rejected { queue_depth; _ } ->
    Alcotest.(check int) "rejected behind one waiter" 1 queue_depth);
  let st = Server_load.stats t in
  Alcotest.(check int) "admits" 2 st.Server_load.st_admits;
  Alcotest.(check int) "queued" 1 st.Server_load.st_queued;
  Alcotest.(check int) "rejects" 1 st.Server_load.st_rejects;
  Alcotest.(check int) "peak occupancy" 1 st.Server_load.st_peak_occupancy

let test_contention_pricing () =
  let cfg =
    { Server_load.default with Server_load.slots = 2; queue_cap = 0 }
  in
  let t = Server_load.create cfg in
  let r1, bw1 = Server_load.load t ~now:0.0 in
  close "idle server prices exclusive R" 1.0 r1;
  close "idle server prices exclusive BW" 1.0 bw1;
  (match Server_load.request t ~now:0.0 ~target:"a" with
  | Session.Admitted { slot; _ } -> Server_load.release t ~now:2.0 ~slot
  | Session.Rejected _ -> Alcotest.fail "first request rejected");
  (* A neighbour running until 2.0: the second slot admits at once but
     at occupancy 2, so both contention coefficients bite. *)
  match Server_load.request t ~now:0.1 ~target:"b" with
  | Session.Admitted { wait_s; occupancy; slot; r_scale; bw_scale; _ } ->
    close "free slot admits with no wait" 0.0 wait_s;
    Alcotest.(check int) "priced at occupancy 2" 2 occupancy;
    close "compute contention"
      (1.0 /. (1.0 +. Server_load.alpha))
      r_scale;
    close "link contention" (1.0 /. (1.0 +. Server_load.beta)) bw_scale;
    Server_load.release t ~now:1.5 ~slot
  | Session.Rejected _ -> Alcotest.fail "second slot rejected"

(* {1 Session under stub server handles} *)

let gzip =
  lazy
    (let entry = Option.get (Registry.by_name "164.gzip") in
     let compiled = Compiler.compile_entry entry in
     (entry, compiled))

let run_session ?server_handle () =
  let entry, compiled = Lazy.force gzip in
  let config =
    match server_handle with
    | None -> Session.default_config ()
    | Some handle ->
      { (Session.default_config ()) with
        Session.server_handle = Some handle }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  Session.run session

(* An uncontended always-admit handle prices every offload at
   occupancy 1 with unit scales — the session must be bit-for-bit the
   plain single-client run. *)
let test_stub_admit_transparent () =
  let handle =
    {
      Session.sh_load = (fun ~now:_ -> (1.0, 1.0));
      Session.sh_request =
        (fun ~now:_ ~target:_ ->
          Session.Admitted
            {
              server = 0;
              wait_s = 0.0;
              occupancy = 1;
              slot = 0;
              queue_depth = 0;
              r_scale = 1.0;
              bw_scale = 1.0;
            });
      Session.sh_release = (fun ~now:_ ~server:_ ~slot:_ -> ());
      Session.sh_volatile = false;
      Session.sh_interrupt = (fun ~now:_ ~server:_ -> None);
      Session.sh_migrate =
        (fun ~now:_ ~target:_ ~from_server:_ ~crashed:_ ->
          Session.Rejected { server = 0; queue_depth = 0 });
    }
  in
  let plain = run_session () in
  let served = run_session ~server_handle:handle () in
  close "identical total time" plain.Session.rep_total_s
    served.Session.rep_total_s;
  Alcotest.(check string) "identical console" plain.Session.rep_console
    served.Session.rep_console;
  Alcotest.(check int) "same offload count" plain.Session.rep_offloads
    served.Session.rep_offloads;
  Alcotest.(check int) "nothing queued" 0 served.Session.rep_queued;
  Alcotest.(check int) "nothing rejected" 0 served.Session.rep_rejects

(* An always-reject handle: every admission bounces, every task runs
   on the mobile device, and the output still matches the local run. *)
let test_stub_reject_runs_local () =
  let handle =
    {
      Session.sh_load = (fun ~now:_ -> (1.0, 1.0));
      Session.sh_request =
        (fun ~now:_ ~target:_ ->
          Session.Rejected { server = 0; queue_depth = 0 });
      Session.sh_release = (fun ~now:_ ~server:_ ~slot:_ -> ());
      Session.sh_volatile = false;
      Session.sh_interrupt = (fun ~now:_ ~server:_ -> None);
      Session.sh_migrate =
        (fun ~now:_ ~target:_ ~from_server:_ ~crashed:_ ->
          Session.Rejected { server = 0; queue_depth = 0 });
    }
  in
  let entry, compiled = Lazy.force gzip in
  let local =
    Local_run.run ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_original
  in
  let served = run_session ~server_handle:handle () in
  Alcotest.(check int) "no offload completes" 0 served.Session.rep_offloads;
  Alcotest.(check bool) "every attempt rejected" true
    (served.Session.rep_rejects > 0);
  Alcotest.(check string) "console identical to local"
    local.Local_run.lr_console served.Session.rep_console

(* {1 Simulator guarantees} *)

let degraded_config ~slots ~queue =
  { Sim.default_config with
    Sim.s_load =
      { Server_load.default with Server_load.slots; queue_cap = queue } }

let test_sim_deterministic () =
  let run_once () =
    let clients =
      Sim.make_clients ~stagger_s:0.02
        ~workloads:[ "164.gzip"; "429.mcf" ] ~count:4 ()
    in
    Sim.render (Sim.run ~config:(degraded_config ~slots:1 ~queue:1) clients)
  in
  Alcotest.(check string) "byte-identical rerun" (run_once ()) (run_once ())

let test_sim_degrades_and_flips () =
  let geomeans =
    List.map
      (fun count ->
        let clients =
          Sim.make_clients ~stagger_s:0.02 ~workloads:[ "164.gzip" ] ~count
            ()
        in
        let result =
          Sim.run ~config:(degraded_config ~slots:2 ~queue:1) clients
        in
        (count, Sim.geomean_speedup result, Sim.flipped_local result))
      [ 1; 2; 4; 8 ]
  in
  let rec check_monotone = function
    | (c1, g1, _) :: ((c2, g2, _) :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf
           "geomean speedup non-increasing (%d clients %.3f -> %d clients \
            %.3f)"
           c1 g1 c2 g2)
        true
        (g2 <= g1 +. 1e-9);
      check_monotone rest
    | _ -> ()
  in
  check_monotone geomeans;
  let _, _, flips_at_max = List.nth geomeans (List.length geomeans - 1) in
  Alcotest.(check bool) "saturation flips at least one client local" true
    (flips_at_max >= 1)

(* Maximum number of intervals overlapping at any instant, by sweeping
   the sorted start/end events. *)
let max_overlap intervals =
  let events =
    List.concat_map (fun (s, e) -> [ (s, 1); (e, -1) ]) intervals
    (* At equal instants process releases before admissions: a slot
       released at t is free for an admission at t. *)
    |> List.sort compare
  in
  let _, peak =
    List.fold_left
      (fun (cur, peak) (_t, d) ->
        let cur = cur + d in
        (cur, max cur peak))
      (0, 0) events
  in
  peak

(* Admitted intervals grouped by the server that granted them. *)
let intervals_by_server result =
  let by_server = Hashtbl.create 8 in
  List.iter
    (fun (srv, s, e) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_server srv)
      in
      Hashtbl.replace by_server srv ((s, e) :: prev))
    (Sim.admitted_intervals result);
  Hashtbl.fold (fun srv iv acc -> (srv, iv) :: acc) by_server []

let prop_slot_bound =
  QCheck.Test.make
    ~name:"admitted offloads never exceed any server's slot bound" ~count:25
    QCheck.(
      pair
        (triple (int_range 1 6) (int_range 1 3) (int_range 0 2))
        (pair (int_range 1 3) (oneofl Pool.all_policies)))
    (fun ((count, slots, queue), (servers, policy)) ->
      let clients =
        Sim.make_clients ~stagger_s:0.03
          ~workloads:[ "164.gzip"; "429.mcf" ] ~count ()
      in
      let config =
        { (degraded_config ~slots ~queue) with
          Sim.s_servers = servers; Sim.s_policy = policy }
      in
      let result = Sim.run ~config clients in
      List.for_all
        (fun (_srv, iv) -> max_overlap iv <= slots)
        (intervals_by_server result))

(* {1 Event queue} *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  (* Fifty scrambled pushes exercise growth past the initial
     capacity. *)
  let times = List.init 50 (fun i -> float_of_int (i * 37 mod 50)) in
  List.iter (fun t -> Event_queue.push q ~time:t ~id:0 t) times;
  Alcotest.(check int) "length" 50 (Event_queue.length q);
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some t -> drain (t :: acc)
  in
  Alcotest.(check (list (float 1e-9)))
    "pops sorted by time" (List.sort compare times) (drain []);
  Alcotest.(check bool) "emptied" true (Event_queue.is_empty q)

let test_event_queue_tie_break () =
  let q = Event_queue.create () in
  (* One shared instant: order must fall back to client id, then to
     push order within an id. *)
  Event_queue.push q ~time:1.0 ~id:2 "c";
  Event_queue.push q ~time:1.0 ~id:1 "a";
  Event_queue.push q ~time:1.0 ~id:1 "b";
  Event_queue.push q ~time:0.5 ~id:9 "first";
  Alcotest.(check (option (float 1e-9)))
    "peek_time sees the minimum" (Some 0.5) (Event_queue.peek_time q);
  let rec drain acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some s -> drain (s :: acc)
  in
  Alcotest.(check (list string))
    "(time, id, seq) order" [ "first"; "a"; "b"; "c" ] (drain [])

(* {1 Pool routing} *)

let pool_config ~slots ~queue =
  { Server_load.default with Server_load.slots; queue_cap = queue }

let admit_exn pool ~client ~now =
  match Pool.request pool ~client ~now ~target:"t" with
  | Session.Admitted { server; slot; _ } -> (server, slot)
  | Session.Rejected _ -> Alcotest.fail "unexpected reject"

let test_pool_round_robin () =
  let pool =
    Pool.create ~policy:Pool.Round_robin ~servers:3
      (pool_config ~slots:2 ~queue:0)
  in
  let targets =
    List.init 6 (fun i ->
        fst (admit_exn pool ~client:i ~now:(float_of_int i)))
  in
  Alcotest.(check (list int)) "cursor cycles members" [ 0; 1; 2; 0; 1; 2 ]
    targets

let test_pool_least_loaded () =
  let pool =
    Pool.create ~policy:Pool.Least_loaded ~servers:3
      (pool_config ~slots:2 ~queue:0)
  in
  Alcotest.(check int) "empty pool ties to lowest id" 0
    (Pool.peek pool ~client:7 ~now:0.0);
  let s0, slot0 = admit_exn pool ~client:0 ~now:0.0 in
  Alcotest.(check int) "first admit on 0" 0 s0;
  let s1, _ = admit_exn pool ~client:1 ~now:0.0 in
  Alcotest.(check int) "routes around the busy member" 1 s1;
  let s2, _ = admit_exn pool ~client:2 ~now:0.0 in
  Alcotest.(check int) "then the last idle member" 2 s2;
  Pool.release pool ~server:0 ~now:1.0 ~slot:slot0;
  Alcotest.(check int) "released member preferred again" 0
    (Pool.peek pool ~client:3 ~now:1.0)

let test_pool_sticky () =
  let pool =
    Pool.create ~policy:Pool.Sticky ~servers:4 (pool_config ~slots:1 ~queue:0)
  in
  List.iter
    (fun client ->
      let first = Pool.peek pool ~client ~now:0.0 in
      Alcotest.(check bool) "member in range" true (first >= 0 && first < 4);
      Alcotest.(check int) "same client, same member" first
        (Pool.peek pool ~client ~now:0.5))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ];
  let expected = Pool.peek pool ~client:5 ~now:0.0 in
  let s, _ = admit_exn pool ~client:5 ~now:0.0 in
  Alcotest.(check int) "request lands on the peeked member" expected s

let test_pool_policy_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Pool.policy_to_string p ^ " round-trips")
        true
        (Pool.policy_of_string (Pool.policy_to_string p) = Some p))
    Pool.all_policies;
  Alcotest.(check bool) "short form rr" true
    (Pool.policy_of_string "rr" = Some Pool.Round_robin);
  Alcotest.(check bool) "short form ll" true
    (Pool.policy_of_string "ll" = Some Pool.Least_loaded);
  Alcotest.(check bool) "unknown name refused" true
    (Pool.policy_of_string "bogus" = None)

(* {1 Policy flip} *)

let fleet_mix = [ "fleet.micro"; "fleet.micro"; "fleet.micro.heavy" ]

let fleet_geomean ~policy ~count =
  let clients =
    Sim.make_clients ~stagger_s:0.0005 ~workloads:fleet_mix ~count ()
  in
  let config =
    { (degraded_config ~slots:1 ~queue:1) with
      Sim.s_servers = 2;
      Sim.s_policy = policy;
      Sim.s_record_events = false }
  in
  Sim.geomean_speedup (Sim.run ~config clients)

let test_policy_flip () =
  (* Below saturation every client finds an idle member, so blind
     round-robin and least-loaded price identically. *)
  let rr = fleet_geomean ~policy:Pool.Round_robin ~count:2
  and ll = fleet_geomean ~policy:Pool.Least_loaded ~count:2 in
  close "identical below saturation" rr ll;
  (* Past saturation the light/heavy mix drains members unevenly;
     least-loaded routes around the backlog and pulls ahead. *)
  let rr = fleet_geomean ~policy:Pool.Round_robin ~count:60
  and ll = fleet_geomean ~policy:Pool.Least_loaded ~count:60 in
  Alcotest.(check bool)
    (Printf.sprintf
       "least-loaded beats round-robin past saturation (%.4f > %.4f)" ll rr)
    true
    (ll > rr +. 1e-6)

let test_policy_determinism () =
  List.iter
    (fun policy ->
      let run_once () =
        let clients =
          Sim.make_clients ~stagger_s:0.0005 ~workloads:fleet_mix ~count:20 ()
        in
        let config =
          { (degraded_config ~slots:1 ~queue:1) with
            Sim.s_servers = 2;
            Sim.s_policy = policy }
        in
        Sim.render (Sim.run ~config clients)
      in
      Alcotest.(check string)
        (Pool.policy_to_string policy ^ ": byte-identical rerun")
        (run_once ()) (run_once ()))
    Pool.all_policies

let tests =
  [
    Alcotest.test_case "server-load: contention curves" `Quick
      test_scale_curves;
    Alcotest.test_case "server-load: admit/queue/reject" `Quick
      test_admission_queue_reject;
    Alcotest.test_case "server-load: occupancy pricing" `Quick
      test_contention_pricing;
    Alcotest.test_case "session: always-admit handle is transparent" `Quick
      test_stub_admit_transparent;
    Alcotest.test_case "session: always-reject handle runs local" `Quick
      test_stub_reject_runs_local;
    Alcotest.test_case "event-queue: heap order" `Quick
      test_event_queue_order;
    Alcotest.test_case "event-queue: deterministic tie-break" `Quick
      test_event_queue_tie_break;
    Alcotest.test_case "pool: round-robin cursor" `Quick
      test_pool_round_robin;
    Alcotest.test_case "pool: least-loaded routing" `Quick
      test_pool_least_loaded;
    Alcotest.test_case "pool: sticky hashing" `Quick test_pool_sticky;
    Alcotest.test_case "pool: policy names" `Quick test_pool_policy_names;
    Alcotest.test_case "sim: deterministic rerun" `Quick
      test_sim_deterministic;
    Alcotest.test_case "sim: policy flip past saturation" `Quick
      test_policy_flip;
    Alcotest.test_case "sim: per-policy byte-identical reruns" `Quick
      test_policy_determinism;
    Alcotest.test_case "sim: degradation and local flips" `Quick
      test_sim_degrades_and_flips;
    QCheck_alcotest.to_alcotest prop_slot_bound;
  ]
