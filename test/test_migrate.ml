(* Checkpoint/migrate tests: the image price, console exactly-once
   suppression, and — through full fleet simulations — the recovery
   guarantees: every canonical loss scenario completes by migration
   with the exact console transcript of an undisturbed run, seeded
   reruns are byte-identical, and migrating beats rollback + local
   replay on the recovered task's wall clock. *)

module Region = No_mem.Region
module Console = No_exec.Console
module Link = No_netsim.Link
module Trace = No_trace.Trace
module Fault_plan = No_fault.Plan
module Session = No_runtime.Session
module Server_load = No_sched.Server_load
module Sim = No_sched.Sim

(* {1 Checkpoint image} *)

(* The price: a 256-byte continuation header, the console ledger, and
   each dirty page with a 16-byte descriptor.  Every Checkpoint row a
   failover writes is priced by it. *)
let test_checkpoint_accounting () =
  Alcotest.(check int) "image bytes"
    (256 + 12 + (3 * (Region.page_size + 16)))
    (Session.image_bytes ~dirty_pages:3 ~ledger_bytes:12);
  Alcotest.(check int) "empty image is just the header" 256
    (Session.image_bytes ~dirty_pages:0 ~ledger_bytes:0);
  let sc = Sim.scenario ~migrate:true "failover" in
  let r = Sim.run ~config:sc.Sim.sc_config sc.Sim.sc_clients in
  let rows =
    List.filter_map
      (fun (_, ev) ->
        match ev with
        | Trace.Checkpoint { pages; image_bytes; ledger_bytes; _ } ->
          Some (pages, image_bytes, ledger_bytes)
        | _ -> None)
      (Sim.global_events r)
  in
  Alcotest.(check bool) "failover checkpoints" true (rows <> []);
  List.iter
    (fun (pages, image_bytes, ledger_bytes) ->
      Alcotest.(check int) "row priced by the image" image_bytes
        (Session.image_bytes ~dirty_pages:pages ~ledger_bytes))
    rows

(* A bigger image takes longer on the same link, and transfer time
   scales with the contention factor. *)
let test_transfer_time_scales () =
  let time ?(bw_factor = 1.0) pages =
    Link.transfer_time_scaled Link.fast_wifi
      ~bytes:(Session.image_bytes ~dirty_pages:pages ~ledger_bytes:12)
      ~bw_factor
  in
  Alcotest.(check bool) "more pages, more wire time" true (time 6 > time 1);
  Alcotest.(check bool) "contention, more wire time" true
    (time ~bw_factor:0.5 1 > time 1)

(* {1 Console exactly-once suppression} *)

let test_console_suppression () =
  let c = Console.create () in
  Console.write_string c "prefix:";
  let m = Console.mark c in
  Console.write_string c "abc";
  Alcotest.(check int) "ledger holds delivered bytes" 3
    (Console.committed_since c m);
  (* Resume: the 3 committed bytes arm the suppression window. *)
  let suppress = Console.resume_at c m in
  Alcotest.(check int) "suppression armed" 3 suppress;
  Alcotest.(check int) "remaining" 3 (Console.suppressed_remaining c);
  (* Re-executed writes matching the ledger are verified and dropped,
     even split across calls. *)
  Console.write_string c "ab";
  Console.write_string c "c";
  Alcotest.(check int) "window consumed" 0 (Console.suppressed_remaining c);
  Alcotest.(check string) "no byte delivered twice" "prefix:abc"
    (Console.contents c);
  (* Post-window output flows normally. *)
  Console.write_string c "-tail";
  Alcotest.(check string) "new output appends" "prefix:abc-tail"
    (Console.contents c);
  (* A resumed run whose output diverges from the ledger is a bug the
     console refuses to hide. *)
  let c = Console.create () in
  Console.write_string c "x";
  let m = Console.mark c in
  Console.write_string c "ab";
  ignore (Console.resume_at c m : int);
  match Console.write_string c "aX" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "diverging resumed output accepted"

(* {1 Heterogeneous pool pricing} *)

let test_r_factor_pricing () =
  let fast = { Server_load.default with Server_load.r_factor = 2.0 } in
  Alcotest.(check (float 1e-9)) "r_factor scales pricing"
    (2.0 *. Server_load.r_scale Server_load.default ~occupancy:1)
    (Server_load.r_scale fast ~occupancy:1);
  Alcotest.(check (float 1e-9)) "composes under contention"
    (2.0 *. Server_load.r_scale Server_load.default ~occupancy:3)
    (Server_load.r_scale fast ~occupancy:3);
  (match Server_load.create { fast with Server_load.r_factor = 0.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "r_factor 0 accepted");
  (* The admission grant carries the member's own grade. *)
  let sv = Server_load.create fast in
  match Server_load.request sv ~now:0.0 ~target:"w" with
  | Session.Admitted { r_scale; _ } ->
    Alcotest.(check (float 1e-9)) "granted r_scale" 2.0 r_scale
  | _ -> Alcotest.fail "fresh server rejected"

(* {1 Scenario guarantees} *)

let run_scenario ?policy ~migrate name =
  let sc = Sim.scenario ?policy ~migrate name in
  Sim.run ~config:sc.Sim.sc_config sc.Sim.sc_clients

(* Seeded reruns of every migration scenario, both recovery modes,
   must render byte-identically — migration decisions are pure
   functions of simulated time. *)
let test_scenarios_deterministic () =
  List.iter
    (fun name ->
      List.iter
        (fun migrate ->
          let render () = Sim.render (run_scenario ~migrate name) in
          Alcotest.(check string)
            (Printf.sprintf "%s migrate=%b deterministic" name migrate)
            (render ()) (render ()))
        [ true; false ])
    Sim.scenario_names

(* A mid-flight crash with healthy siblings completes by migration:
   checkpoints captured, shipped, resumed — and no task pays the
   local-replay path. *)
let test_failover_completes_via_migration () =
  let r = run_scenario ~migrate:true "failover" in
  let ck, started, completed, replays = Sim.migration_totals r in
  Alcotest.(check bool) "captured a checkpoint" true (ck >= 1);
  Alcotest.(check bool) "started a migration" true (started >= 1);
  Alcotest.(check int) "every started migration resumed" started completed;
  Alcotest.(check int) "no local replay" 0 replays;
  (* With migration off, the same loss pays rollback + replay. *)
  let r_off = run_scenario ~migrate:false "failover" in
  let _, started_off, _, replays_off = Sim.migration_totals r_off in
  Alcotest.(check int) "replay mode never migrates" 0 started_off;
  Alcotest.(check bool) "replay mode replays" true (replays_off >= 1)

(* Exactly-once side effects: each client's console transcript under
   crash + migration is byte-identical to the same fleet run with no
   fault at all. *)
let test_migration_exactly_once () =
  let faulted = run_scenario ~migrate:true "failover" in
  let sc = Sim.scenario ~migrate:true "failover" in
  let clean_clients =
    List.map (fun cl -> { cl with Sim.cl_faults = None }) sc.Sim.sc_clients
  in
  let clean = Sim.run ~config:sc.Sim.sc_config clean_clients in
  List.iter2
    (fun (f : Sim.client_result) (c : Sim.client_result) ->
      Alcotest.(check string)
        (Printf.sprintf "client %d console" f.Sim.cr_id)
        c.Sim.cr_report.Session.rep_console
        f.Sim.cr_report.Session.rep_console)
    faulted.Sim.r_clients clean.Sim.r_clients

(* Rolling maintenance: drained members return, everything completes
   by migration, and the transcripts still match a quiet fleet. *)
let test_maintenance_migrates_and_matches () =
  let r = run_scenario ~migrate:true "maintenance" in
  let _, started, completed, replays = Sim.migration_totals r in
  Alcotest.(check bool) "maintenance migrates" true (started >= 1);
  Alcotest.(check int) "all resumed" started completed;
  Alcotest.(check int) "no replays" 0 replays;
  let sc = Sim.scenario ~migrate:true "maintenance" in
  let quiet_config = { sc.Sim.sc_config with Sim.s_schedule = [] } in
  let quiet = Sim.run ~config:quiet_config sc.Sim.sc_clients in
  List.iter2
    (fun (f : Sim.client_result) (c : Sim.client_result) ->
      Alcotest.(check string)
        (Printf.sprintf "client %d console" f.Sim.cr_id)
        c.Sim.cr_report.Session.rep_console
        f.Sim.cr_report.Session.rep_console)
    r.Sim.r_clients quiet.Sim.r_clients

(* The point of the subsystem: shipping the checkpoint to a healthy
   member beats re-running the task on the slow mobile core.  Compare
   the disturbed clients' wall clock across the two recovery modes of
   every scenario. *)
let recovered_wall (r : Sim.result) =
  List.fold_left
    (fun acc (cr : Sim.client_result) ->
      let rep = cr.Sim.cr_report in
      if rep.Session.rep_checkpoints > 0 || rep.Session.rep_fallbacks > 0
      then acc +. rep.Session.rep_total_s
      else acc)
    0.0 r.Sim.r_clients

let test_migration_beats_replay () =
  List.iter
    (fun name ->
      let on = recovered_wall (run_scenario ~migrate:true name) in
      let off = recovered_wall (run_scenario ~migrate:false name) in
      if not (on > 0.0 && off > on) then
        Alcotest.failf
          "%s: migrate %.4f s should beat replay %.4f s" name on off)
    Sim.scenario_names

(* {1 QCheck: checkpoint -> restore round trip}

   Whatever instant the granting server dies at, the migrated (or,
   when no sibling is healthy, replayed) fleet finishes with console
   transcripts byte-identical to an undisturbed run — side effects
   exactly once, progress cursors intact. *)
let prop_crash_roundtrip =
  QCheck.Test.make ~name:"crash at any instant round-trips the consoles"
    ~count:12
    QCheck.(pair (float_range 0.015 0.6) (int_range 0 3))
    (fun (crash_at, victim) ->
      let config =
        { Sim.default_config with Sim.s_servers = 3 }
      in
      let clients =
        Sim.make_clients ~stagger_s:0.02
          ~workloads:[ "164.gzip"; "429.mcf" ] ~count:4 ()
      in
      let crash =
        { Fault_plan.empty with Fault_plan.crash_at_s = Some crash_at }
      in
      let faulted =
        List.map
          (fun cl ->
            if cl.Sim.cl_id = victim then
              { cl with Sim.cl_faults = Some crash }
            else cl)
          clients
      in
      let disturbed = Sim.run ~config faulted in
      let quiet = Sim.run ~config clients in
      List.for_all2
        (fun (f : Sim.client_result) (c : Sim.client_result) ->
          String.equal f.Sim.cr_report.Session.rep_console
            c.Sim.cr_report.Session.rep_console)
        disturbed.Sim.r_clients quiet.Sim.r_clients)

let tests =
  [
    Alcotest.test_case "checkpoint: image accounting" `Quick
      test_checkpoint_accounting;
    Alcotest.test_case "checkpoint: transfer time scales" `Quick
      test_transfer_time_scales;
    Alcotest.test_case "console: exactly-once suppression" `Quick
      test_console_suppression;
    Alcotest.test_case "pool: r_factor pricing" `Quick test_r_factor_pricing;
    Alcotest.test_case "scenarios: byte-identical reruns" `Quick
      test_scenarios_deterministic;
    Alcotest.test_case "failover: completes via migration" `Quick
      test_failover_completes_via_migration;
    Alcotest.test_case "failover: side effects exactly once" `Quick
      test_migration_exactly_once;
    Alcotest.test_case "maintenance: drains migrate and match" `Quick
      test_maintenance_migrates_and_matches;
    Alcotest.test_case "every scenario: migration beats replay" `Quick
      test_migration_beats_replay;
    QCheck_alcotest.to_alcotest prop_crash_roundtrip;
  ]
