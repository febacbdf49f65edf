(* Surviving a flaky network: fault injection and transparent recovery.

     dune exec examples/flaky_network.exe

   The same workload (458.sjeng at profile scale) runs three times:
   fault-free, through a link outage that opens mid-offload, and with
   the server crashing outright.  The fault plan is a deterministic,
   seeded schedule — re-running with the same plan reproduces the same
   faults — and the runtime absorbs every one of them: short outages
   ride on the per-RPC retry/backoff loop, while a dead server triggers
   rollback of the mobile state to the offload-start snapshot and a
   local replay of the task.  In every case the console transcript is
   byte-for-byte the one a pure-local run produces; what varies is the
   time (and battery) the recovery cost. *)

open No_prelude.Prelude

let plan_exn s =
  match Fault_plan.parse s with
  | Ok p -> p
  | Error msg -> failwith (s ^ ": " ^ msg)

let () =
  let entry = Option.get (Registry.by_name "458.sjeng") in
  let compiled = Compiler.compile_entry entry in
  let local =
    Local_run.run ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_original
  in
  let run faults =
    let config = { (Session.default_config ()) with Session.faults } in
    let session =
      Session.create ~config ~script:entry.Registry.e_profile_script
        ~files:entry.Registry.e_files compiled.Compiler.c_output
        ~seeds:compiled.Compiler.c_seeds
    in
    Session.run session
  in
  let clean = run None in
  let t = clean.Session.rep_total_s in
  let table =
    Table.create
      ~title:"458.sjeng on a flaky network (every run survives)"
      [ "scenario"; "exec (s)"; "retries"; "fallbacks"; "recovery (s)";
        "console ok" ]
  in
  let row label (r : Session.report) =
    Table.add_row table
      [
        label;
        Table.cell_f r.Session.rep_total_s;
        Table.cell_i r.Session.rep_retries;
        Table.cell_i r.Session.rep_fallbacks;
        Table.cell_f r.Session.rep_recovery_s;
        (if String.equal r.Session.rep_console local.Local_run.lr_console
         then "yes" else "NO");
      ]
  in
  row "fault-free" clean;
  row "link outage mid-offload"
    (run
       (Some
          (plan_exn
             (Printf.sprintf "outage=%.3f:%.3f,seed=42" (0.3 *. t)
                (0.5 *. t)))));
  row "server crash"
    (run (Some (plan_exn (Printf.sprintf "crash=%.3f" (0.4 *. t)))));
  Table.print table;
  Fmt.pr
    "@.Outages are absorbed by deadline + exponential backoff; a dead \
     server rolls the@.mobile state back to the offload-start snapshot \
     and replays the task locally.@."
