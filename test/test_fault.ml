(* Fault-injection subsystem tests: the seeded RNG, the plan grammar,
   the injector's verdict order, and — through real sessions — the
   recovery guarantees: an empty plan is a byte-for-byte no-op, short
   outages are absorbed by retries, and a long outage or a server
   crash rolls back and replays locally with the exact console
   transcript of a fault-free run. *)

module Rng = No_fault.Rng
module Fault_plan = No_fault.Plan
module Injector = No_fault.Injector
module Trace = No_trace.Trace
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Chess = No_workloads.Chess
module Registry = No_workloads.Registry
module Compiler = Native_offloader.Compiler
module Experiment = Native_offloader.Experiment

(* {1 RNG} *)

let test_rng_determinism () =
  let draws n seed =
    let r = Rng.create seed in
    List.init n (fun _ -> Rng.next r)
  in
  Alcotest.(check bool) "same seed, same sequence" true
    (draws 16 42L = draws 16 42L);
  Alcotest.(check bool) "different seed, different sequence" true
    (draws 16 42L <> draws 16 43L);
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then
      Alcotest.failf "float out of [0,1): %.17g" f
  done;
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let i = Rng.int r 10 in
    if i < 0 || i >= 10 then Alcotest.failf "int out of [0,10): %d" i
  done;
  match Rng.int r 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 accepted"

(* {1 Plan grammar} *)

let plan_exn s =
  match Fault_plan.parse s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_plan_parse () =
  Alcotest.(check bool) "empty string is the empty plan" true
    (plan_exn "" = Fault_plan.empty);
  Alcotest.(check bool) "empty plan is empty" true
    (Fault_plan.is_empty Fault_plan.empty);
  let p =
    plan_exn "seed=42,outage=0.5:2.0,drop=0.05,corrupt=0.01,crash=3.5,\
              collapse=1.0:0.02"
  in
  Alcotest.(check bool) "parsed plan is not empty" false
    (Fault_plan.is_empty p);
  Alcotest.(check bool) "to_string round-trips" true
    (plan_exn (Fault_plan.to_string p) = p);
  Alcotest.(check bool) "outage windows accumulate" true
    (List.length (plan_exn "outage=1:2,outage=4:5").Fault_plan.outages = 2);
  List.iter
    (fun bad ->
      match Fault_plan.parse bad with
      | Ok _ -> Alcotest.failf "accepted invalid plan %S" bad
      | Error _ -> ())
    [ "drop=2.0"; "drop=-0.1"; "outage=5:1"; "collapse=1:0"; "collapse=1:1.5";
      "wat=3"; "seed=xyz"; "outage=1"; "crash=";
      (* non-finite numbers, which every comparison above lets through *)
      "crash=nan"; "crash=inf"; "outage=1:nan"; "outage=nan:2";
      "outage=1:inf"; "drop=nan"; "corrupt=nan"; "collapse=nan:0.5";
      "collapse=1:nan"; "collapse=inf:0.5" ];
  Alcotest.(check (result reject string)) "a NaN names its field"
    (Error "crash: not a finite number (\"nan\")")
    (Result.map ignore (Fault_plan.parse "crash=nan"))

(* {1 Injector verdicts} *)

let test_injector_verdicts () =
  let inj s = Injector.create (plan_exn s) in
  (* precedence: crash beats outage beats the probability draw *)
  (* probabilities are capped below 1.0 by the grammar; 0.999 with the
     plan's fixed default seed still gives a deterministic verdict *)
  let i = inj "crash=3.0,outage=2.0:10.0,drop=0.999" in
  (match Injector.judge i ~now:5.0 with
  | Injector.Server_down -> ()
  | v -> Alcotest.failf "expected crash, got %s" (Injector.verdict_kind v));
  (match Injector.judge i ~now:2.5 with
  | Injector.Outage until ->
    Alcotest.(check (float 1e-9)) "dark until window end" 10.0 until
  | v -> Alcotest.failf "expected outage, got %s" (Injector.verdict_kind v));
  (match Injector.judge i ~now:1.0 with
  | Injector.Drop -> ()
  | v -> Alcotest.failf "expected drop, got %s" (Injector.verdict_kind v));
  Alcotest.(check int) "all three verdicts counted" 3 (Injector.injected i);
  (* certain corruption, no loss *)
  (match Injector.judge (inj "corrupt=0.999") ~now:0.0 with
  | Injector.Corrupt -> ()
  | v -> Alcotest.failf "expected corrupt, got %s" (Injector.verdict_kind v));
  (* clean delivery off the fault windows *)
  (match Injector.judge (inj "outage=2:3,crash=9") ~now:1.0 with
  | Injector.Deliver -> ()
  | v -> Alcotest.failf "expected deliver, got %s" (Injector.verdict_kind v));
  (* bandwidth collapse gates on its activation time *)
  let c = inj "collapse=2.0:0.25" in
  Alcotest.(check (float 1e-9)) "nominal before collapse" 1.0
    (Injector.bw_factor c ~now:1.0);
  Alcotest.(check (float 1e-9)) "scaled after collapse" 0.25
    (Injector.bw_factor c ~now:3.0);
  (* bounded exponential backoff *)
  let p = Injector.default_policy in
  Alcotest.(check (list (float 1e-9))) "backoff doubles then caps"
    [ 0.25; 0.5; 1.0; 2.0; 2.0 ]
    (List.map (fun a -> Injector.backoff_s p ~attempt:a) [ 1; 2; 3; 4; 5 ])

(* {1 Session-level recovery}

   All timing below derives from the workload's measured fault-free
   duration T, so the faults land mid-offload at any scale. *)

let sjeng () = Option.get (Registry.by_name "458.sjeng")

let run_entry ?ring entry compiled faults =
  let trace =
    match ring with None -> Trace.null | Some r -> Trace.Ring.sink r
  in
  let config =
    { (Session.default_config ()) with Session.faults; Session.trace }
  in
  let session =
    Session.create ~config ~script:entry.Registry.e_profile_script
      ~files:entry.Registry.e_files compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  Session.run session

let local_entry entry compiled =
  Local_run.run ~script:entry.Registry.e_profile_script
    ~files:entry.Registry.e_files compiled.Compiler.c_original

let event_count ring pred =
  List.length (List.filter (fun (_, ev) -> pred ev) (Trace.Ring.events ring))

(* The empty plan must be a strict no-op: identical report record and
   identical event stream (timestamps included), on chess and on a
   SPEC workload. *)

let check_noop name config ~script ~files compiled =
  let run faults =
    let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
    let config =
      { config with Session.faults; Session.trace = Trace.Ring.sink ring }
    in
    let session =
      Session.create ~config ~script ~files compiled.Compiler.c_output
        ~seeds:compiled.Compiler.c_seeds
    in
    let r = Session.run session in
    (r, Trace.Ring.events ring)
  in
  let r_none, ev_none = run None in
  let r_empty, ev_empty = run (Some Fault_plan.empty) in
  Alcotest.(check bool) (name ^ ": identical report") true (r_none = r_empty);
  Alcotest.(check int)
    (name ^ ": same event count")
    (List.length ev_none) (List.length ev_empty);
  Alcotest.(check bool) (name ^ ": identical event stream") true
    (ev_none = ev_empty)

let test_empty_plan_noop () =
  let chess =
    Compiler.compile
      ~profile_script:(Chess.script ~depth:3 ~turns:2)
      ~eval_scale:2.0 (Chess.build ())
  in
  check_noop "chess"
    (Experiment.fast_config ())
    ~script:(Chess.script ~depth:4 ~turns:2)
    ~files:[] chess;
  let entry = sjeng () in
  let compiled = Compiler.compile_entry entry in
  check_noop "458.sjeng"
    (Session.default_config ())
    ~script:entry.Registry.e_profile_script ~files:entry.Registry.e_files
    compiled

(* A short outage is ridden out by the retry loop: no fallback, same
   console, and the waiting shows up in time and battery. *)

let test_short_outage_retries () =
  let entry = sjeng () in
  let compiled = Compiler.compile_entry entry in
  let local = local_entry entry compiled in
  let clean = run_entry entry compiled None in
  let t = clean.Session.rep_total_s in
  let plan =
    plan_exn (Printf.sprintf "outage=%.4f:%.4f" (0.3 *. t) (0.5 *. t))
  in
  let r = run_entry entry compiled (Some plan) in
  Alcotest.(check string) "console matches local"
    local.Local_run.lr_console r.Session.rep_console;
  Alcotest.(check bool) "retried" true (r.Session.rep_retries > 0);
  Alcotest.(check int) "no fallback" 0 r.Session.rep_fallbacks;
  Alcotest.(check bool) "waiting cost time" true
    (r.Session.rep_total_s > clean.Session.rep_total_s);
  Alcotest.(check bool) "waiting cost battery" true
    (r.Session.rep_energy_mj > clean.Session.rep_energy_mj)

(* A long outage exhausts the retry budget mid-offload: the session
   rolls back and replays locally, reproducing the local transcript. *)

let test_long_outage_fallback () =
  let entry = sjeng () in
  let compiled = Compiler.compile_entry entry in
  let local = local_entry entry compiled in
  let clean = run_entry entry compiled None in
  let t = clean.Session.rep_total_s in
  let plan =
    plan_exn (Printf.sprintf "outage=%.4f:%.4f" (0.3 *. t) ((0.3 *. t) +. 60.0))
  in
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let r = run_entry ~ring entry compiled (Some plan) in
  Alcotest.(check string) "console matches local"
    local.Local_run.lr_console r.Session.rep_console;
  Alcotest.(check bool) "fell back" true (r.Session.rep_fallbacks > 0);
  Alcotest.(check bool) "timeouts recorded" true
    (r.Session.rep_rpc_timeouts > 0);
  Alcotest.(check bool) "fallback event emitted" true
    (event_count ring (function Trace.Fallback_local _ -> true | _ -> false)
     > 0);
  Alcotest.(check bool) "rollback event emitted" true
    (event_count ring (function Trace.Rollback _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "recovery charged to battery" true
    (r.Session.rep_energy_mj > clean.Session.rep_energy_mj)

(* Server death: detected at the next exchange, rolled back, replayed
   locally; later invocations refuse instead of re-trying the corpse. *)

let test_server_crash_fallback () =
  let entry = sjeng () in
  let compiled = Compiler.compile_entry entry in
  let local = local_entry entry compiled in
  let clean = run_entry entry compiled None in
  let t = clean.Session.rep_total_s in
  let plan = plan_exn (Printf.sprintf "crash=%.4f" (0.4 *. t)) in
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let r = run_entry ~ring entry compiled (Some plan) in
  Alcotest.(check string) "console matches local"
    local.Local_run.lr_console r.Session.rep_console;
  Alcotest.(check int) "exactly one fallback" 1 r.Session.rep_fallbacks;
  Alcotest.(check bool) "rollback event emitted" true
    (event_count ring (function Trace.Rollback _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "later invocations refuse the dead server" true
    (r.Session.rep_refusals > clean.Session.rep_refusals)

(* Message loss is seeded: the same plan reproduces the same run bit
   for bit; a different seed may fault differently but still delivers
   the same program output. *)

let test_seeded_drop_reproducible () =
  let entry = sjeng () in
  let compiled = Compiler.compile_entry entry in
  let local = local_entry entry compiled in
  let run seed =
    run_entry entry compiled
      (Some (plan_exn (Printf.sprintf "drop=0.2,seed=%d" seed)))
  in
  let a = run 11 and b = run 11 and c = run 12 in
  Alcotest.(check bool) "same seed, identical report" true (a = b);
  Alcotest.(check bool) "faults actually fired" true
    (a.Session.rep_retries > 0);
  Alcotest.(check string) "seed 11 console matches local"
    local.Local_run.lr_console a.Session.rep_console;
  Alcotest.(check string) "seed 12 console matches local"
    local.Local_run.lr_console c.Session.rep_console

(* The registry's first four programs, each under three plans timed
   off its clean offloaded duration T (an outage over [0.25T, 0.45T], a
   server crash at 0.4T, 3% seeded message loss), print exactly what
   the local run prints: every fault is absorbed by retries or by
   rollback + local replay. *)

let test_registry_fault_sweep () =
  let fallbacks = ref 0 in
  List.iter
    (fun entry ->
      let compiled = Compiler.compile_entry entry in
      let local = local_entry entry compiled in
      let t = (run_entry entry compiled None).Session.rep_total_s in
      List.iter
        (fun plan ->
          let r = run_entry entry compiled (Some (plan_exn plan)) in
          fallbacks := !fallbacks + r.Session.rep_fallbacks;
          Alcotest.(check string)
            (Printf.sprintf "%s under %s: console matches local"
               entry.Registry.e_name plan)
            local.Local_run.lr_console r.Session.rep_console)
        [ Printf.sprintf "outage=%.4f:%.4f" (0.25 *. t) (0.45 *. t);
          Printf.sprintf "crash=%.4f" (0.4 *. t);
          "drop=0.03,seed=7" ])
    (List.filteri (fun i _ -> i < 4) Registry.spec);
  Alcotest.(check bool) "the sweep exercised rollback + local replay" true
    (!fallbacks > 0)

(* A kernel that prints while it runs ([examples/programs/progress.ir]:
   each print is a remote I/O call).  The server dies at 0.4T, after
   the lost attempt has delivered output: the rollback must discard
   those bytes, because the local replay prints them again. *)

let progress_program () =
  let ic = open_in_bin "../examples/programs/progress.ir" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      No_ir.Parser.parse (really_input_string ic (in_channel_length ic)))

let test_crash_discards_printed_output () =
  let script n = [ No_exec.Console.In_int (Int64.of_int n) ] in
  let compiled =
    Compiler.compile ~profile_script:(script 2000) ~eval_scale:10.0
      (progress_program ())
  in
  let local =
    Local_run.run ~script:(script 20000) compiled.Compiler.c_original
  in
  let run ?(trace = Trace.null) faults =
    let config =
      { (Session.default_config ()) with Session.faults; Session.trace }
    in
    Session.run
      (Session.create ~config ~script:(script 20000)
         compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds)
  in
  let t = (run None).Session.rep_total_s in
  let ring = Trace.Ring.create ~capacity:(1 lsl 20) () in
  let r =
    run ~trace:(Trace.Ring.sink ring)
      (Some (plan_exn (Printf.sprintf "crash=%.4f" (0.4 *. t))))
  in
  Alcotest.(check string) "console matches local"
    local.Local_run.lr_console r.Session.rep_console;
  Alcotest.(check int) "exactly one fallback" 1 r.Session.rep_fallbacks;
  match
    List.filter_map
      (function
        | _, Trace.Rollback { bytes_discarded; _ } -> Some bytes_discarded
        | _ -> None)
      (Trace.Ring.events ring)
  with
  | [ discarded ] ->
    Alcotest.(check bool) "the rollback discarded printed bytes" true
      (discarded > 0)
  | rows ->
    Alcotest.failf "expected one rollback row, got %d" (List.length rows)

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "plan grammar" `Quick test_plan_parse;
    Alcotest.test_case "injector verdicts" `Quick test_injector_verdicts;
    Alcotest.test_case "empty plan is a no-op" `Quick test_empty_plan_noop;
    Alcotest.test_case "short outage: retries absorb" `Quick
      test_short_outage_retries;
    Alcotest.test_case "long outage: local fallback" `Quick
      test_long_outage_fallback;
    Alcotest.test_case "server crash: local fallback" `Quick
      test_server_crash_fallback;
    Alcotest.test_case "seeded drops reproduce" `Quick
      test_seeded_drop_reproducible;
    Alcotest.test_case "registry sweep: every fault absorbed" `Quick
      test_registry_fault_sweep;
    Alcotest.test_case "crash: printed output rolled back" `Quick
      test_crash_discards_printed_output;
  ]
