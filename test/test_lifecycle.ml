(* Golden traces of every exit of the offload life cycle.

   Each case drives one exit — a clean offload, faults absorbed by
   retries, a crash recovered by rollback and local replay, a
   migration that completes, one that is rejected, one whose resumed
   attempt is lost too, an admission rejection — and pins the whole
   encoded event stream by its MD5.  Any change to which rows an exit
   writes, or to their order or fields, changes the digest.

   The digest alone would let a case drift silently onto another exit
   (a retuned plan that no longer crashes still has *a* digest), so
   each case also names the rows its exit must produce, in order, and
   the rows it must not. *)

module Trace = No_trace.Trace
module Trace_file = No_obs.Trace_file
module Fault_plan = No_fault.Plan
module Session = No_runtime.Session
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Server_load = No_sched.Server_load
module Sim = No_sched.Sim

(* An event's label: its wire kind, plus the fault kind for injected
   faults so a case can tell drops from corruptions. *)
let label =
  let row = Trace.Row.create () in
  fun ev ->
    Trace.Row.of_event row ev;
    let kind = Trace.Row.schema.(row.Trace.Row.kind).Trace.Row.wire in
    match ev with
    | Trace.Fault_injected { kind = fault; _ } -> kind ^ "/" ^ fault
    | _ -> kind

(* Does [want] occur in [labels] as a subsequence? *)
let rec occurs_in_order want labels =
  match (want, labels) with
  | [], _ -> true
  | _, [] -> false
  | w :: ws, l :: ls ->
    if String.equal w l then occurs_in_order ws ls
    else occurs_in_order want ls

(* {1 Single sessions, profile-scale inputs} *)

let compiled =
  let cache = Hashtbl.create 2 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some c -> c
    | None ->
      let entry = Option.get (Registry.by_name name) in
      let c =
        ( entry,
          Compiler.compile_entry entry )
      in
      Hashtbl.replace cache name c;
      c

let session_events ?faults name () =
  let entry, c = compiled name in
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let faults =
    Option.map
      (fun text ->
        match Fault_plan.parse text with
        | Ok plan -> plan
        | Error msg -> Alcotest.failf "plan %S: %s" text msg)
      faults
  in
  let config =
    { (Session.default_config ()) with
      Session.faults;
      Session.trace = Trace.Ring.sink ring }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files c.Compiler.c_output
      ~seeds:c.Compiler.c_seeds
  in
  ignore (Session.run session : Session.report);
  Alcotest.(check int) "ring kept every event" 0 (Trace.Ring.dropped ring);
  Trace.Ring.events ring

(* {1 Fleets, recording on} *)

let fleet_events ~config clients () =
  Sim.global_events (Sim.run ~config clients)

let scenario_events ~migrate name () =
  let sc = Sim.scenario ~migrate name in
  fleet_events ~config:sc.Sim.sc_config sc.Sim.sc_clients ()

let gzip_client ~faults =
  Sim.make_clients ~faults ~workloads:[ "164.gzip" ] ~count:1 ()

type case = {
  name : string;
  events : unit -> (float * Trace.event) list;
  md5 : string;
  rows : string list;  (* must occur, in this order *)
  absent : string list;  (* must not occur at all *)
}

let migrated = [ "checkpoint"; "migrate-start"; "migrate-done" ]
let replayed = [ "rollback"; "fallback-local"; "offload-end"; "replay" ]

let cases =
  [
    {
      name = "clean 458.sjeng";
      events = session_events "458.sjeng";
      md5 = "8d47150a3d1a7f58e4e9a52c11323725";
      rows = [ "estimate"; "offload-begin"; "offload-end" ];
      absent = [ "fault-injected"; "rollback"; "replay" ];
    };
    {
      name = "clean 164.gzip";
      events = session_events "164.gzip";
      md5 = "1c6cb1a7a67a1b30117dea69d0632838";
      rows = [ "estimate"; "offload-begin"; "offload-end" ];
      absent = [ "fault-injected"; "rollback"; "replay" ];
    };
    {
      name = "164.gzip outage absorbed";
      events = session_events ~faults:"outage=0.5:2.0,seed=7" "164.gzip";
      md5 = "ed7cb57107040047406fbe0838b714f9";
      rows =
        [ "offload-begin"; "fault-injected/link-outage"; "rpc-timeout";
          "retry"; "offload-end" ];
      absent = [ "rollback"; "fallback-local"; "replay" ];
    };
    {
      name = "164.gzip drops and NACKs absorbed";
      events = session_events ~faults:"drop=0.2,corrupt=0.1,seed=3" "164.gzip";
      md5 = "04e72da48d88fce286ca3814c9c65825";
      rows =
        [ "fault-injected/drop"; "rpc-timeout"; "retry";
          "fault-injected/corruption"; "retry"; "offload-end" ];
      absent = [ "rollback"; "fallback-local"; "replay" ];
    };
    {
      name = "458.sjeng crash: replay, then refusals";
      events = session_events ~faults:"crash=1.0,seed=7" "458.sjeng";
      md5 = "8383386ccf9fcab7e2dfec82e46a59c6";
      rows =
        [ "fault-injected/server-crash" ] @ replayed
        @ [ "refusal"; "refusal" ];
      absent = [ "checkpoint" ];
    };
  ]
  @ List.concat_map
      (fun (name, md5_on, md5_off) ->
        [
          {
            name = name ^ " with migration";
            events = scenario_events ~migrate:true name;
            md5 = md5_on;
            rows = migrated;
            absent = [ "rollback"; "replay" ];
          };
          {
            name = name ^ " without migration";
            events = scenario_events ~migrate:false name;
            md5 = md5_off;
            rows = replayed;
            absent = [ "checkpoint"; "migrate-start" ];
          };
        ])
      [
        ( "failover", "86e818eb52a9fbbd268a595936c0dfc1",
          "e080d0636991a7864a549900eafc490c" );
        ( "maintenance", "1621a9f4944a0ad0ea1521266f534000",
          "191185ef4af4bdec0e81cd346653cede" );
        ( "rebalance", "ec784f94fd613b67cf16b2ae33e3fd3c",
          "cde0b6cbc07300e9396718c62a42541e" );
      ]
  @ [
      {
        name = "one member: migration rejected";
        events =
          fleet_events ~config:Sim.default_config
            (gzip_client
               ~faults:
                 { Fault_plan.empty with Fault_plan.crash_at_s = Some 0.05 });
        md5 = "ea7920828610e3411a8b11c9d7e0fef5";
        rows = "checkpoint" :: replayed;
        absent = [ "migrate-start" ];
      };
      {
        name = "three members: resumed attempt lost";
        events =
          fleet_events
            ~config:{ Sim.default_config with Sim.s_servers = 3 }
            (gzip_client
               ~faults:
                 (match Fault_plan.parse "outage=0.02:50.0,seed=3" with
                 | Ok plan -> plan
                 | Error msg -> failwith msg));
        md5 = "4974127e2416df6653283491bc7dd1ce";
        rows = [ "checkpoint"; "migrate-start"; "rpc-timeout" ] @ replayed;
        absent = [ "migrate-done" ];
      };
      {
        name = "full queue: reject and replay";
        events =
          fleet_events
            ~config:
              { Sim.default_config with
                Sim.s_load =
                  { Server_load.default with
                    Server_load.slots = 1;
                    queue_cap = 0 } }
            (Sim.make_clients ~stagger_s:0.0 ~workloads:[ "164.gzip" ]
               ~count:4 ());
        md5 = "d815a6610f4f83e7950d91be6a0f979c";
        rows = [ "reject"; "replay"; "reject"; "replay"; "reject"; "replay" ];
        absent = [ "rollback" ];
      };
    ]

(* The golden check and the round trip below read one run per case. *)
let cases =
  List.map
    (fun case ->
      let events = lazy (case.events ()) in
      { case with events = (fun () -> Lazy.force events) })
    cases

let check case () =
  let events = case.events () in
  let labels = List.map (fun (_, ev) -> label ev) events in
  let kinds =
    List.map
      (fun l ->
        match String.index_opt l '/' with
        | Some i -> String.sub l 0 i
        | None -> l)
      labels
  in
  if not (occurs_in_order case.rows labels) then
    Alcotest.failf "%s: rows [%s] do not occur in order" case.name
      (String.concat "; " case.rows);
  List.iter
    (fun k ->
      if List.mem k kinds then
        Alcotest.failf "%s: unexpected %s row" case.name k)
    case.absent;
  Alcotest.(check string)
    (case.name ^ ": trace MD5")
    case.md5
    (Digest.to_hex (Digest.string (Trace_file.to_string events)))

(* Each pinned stream also loads back bit for bit and re-encodes to
   the same bytes: the decoder's half of the codec, on every exit. *)
let round_trip case () =
  let events = case.events () in
  let text = Trace_file.to_string events in
  match Trace_file.of_string text with
  | Error msg -> Alcotest.failf "%s: %s" case.name msg
  | Ok decoded ->
    let bits v = Marshal.to_string v [ Marshal.No_sharing ] in
    Alcotest.(check bool)
      (case.name ^ ": decodes bit for bit")
      true
      (bits decoded = bits events);
    Alcotest.(check string)
      (case.name ^ ": re-encodes byte for byte")
      text
      (Trace_file.to_string decoded)

let tests =
  List.map
    (fun case -> Alcotest.test_case ("golden: " ^ case.name) `Quick (check case))
    cases
  @ List.map
      (fun case ->
        Alcotest.test_case ("round trip: " ^ case.name) `Quick
          (round_trip case))
      cases
