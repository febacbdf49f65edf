(* Runtime/session tests: dirty-page write-back, copy-on-demand vs
   prefetch vs copy-all, write-back compression, cross-architecture
   configurations (big-endian mobile; 32-bit server; every
   architecture pair against local runs; the Figure 4 layout), and the
   stack separation guarantee. *)

module B = No_ir.Builder
module Ir = No_ir.Ir
module Ty = No_ir.Ty
module Arch = No_arch.Arch
module Link = No_netsim.Link
module Session = No_runtime.Session
module Local_run = No_runtime.Local_run
module Compiler = Native_offloader.Compiler
module W = No_workloads.Support
module Registry = No_workloads.Registry
module Value = No_exec.Value
module Pipeline = No_transform.Pipeline
module Experiment = Native_offloader.Experiment

(* A small offloadable program: the hot kernel makes several passes
   over a heap buffer (reads + writes: the pages come to the server by
   copy-on-demand and return as dirty pages), accumulating a value the
   mobile side then prints together with a buffer checksum. *)
let build_scaler () =
  let t = B.create "scaler" in
  W.add_checksum t;
  B.global t "buf" W.i64p Ir.Zero_init;
  let _ =
    B.func t "hot" ~params:[ W.i64p; Ty.I64; Ty.I64 ] ~ret:Ty.I64
      (fun fb args ->
        let buf = List.nth args 0
        and words = List.nth args 1
        and passes = List.nth args 2 in
        let acc = B.alloca fb Ty.I64 1 in
        B.store fb Ty.I64 (B.i64 0) acc;
        B.for_ fb ~name:"hot_pass" ~from:(B.i64 0) ~below:passes (fun _p ->
            B.for_ fb ~name:"hot_words" ~from:(B.i64 0) ~below:words (fun i ->
                let slot = B.gep fb Ty.I64 buf [ Ir.Index i ] in
                let v = B.load fb Ty.I64 slot in
                let v' = B.iadd fb (B.imul fb v (B.i64 3)) (B.i64 1) in
                B.store fb Ty.I64 (B.iand fb v' (B.i64 0xFFFFFFF)) slot;
                let a = B.load fb Ty.I64 acc in
                B.store fb Ty.I64 (B.ixor fb a v') acc));
        B.ret fb (Some (B.load fb Ty.I64 acc)))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let words, passes = W.scan2 fb in
        let buf = W.malloc_words fb (B.imul fb words (B.i64 8)) in
        B.store fb W.i64p buf (Ir.Global "buf");
        W.fill_pattern fb ~name:"fill" buf ~words ~seed:(B.i64 3)
          ~step:(B.i64 17);
        let r = B.call fb "hot" [ buf; words; passes ] in
        W.print_result t fb ~label:"acc" r;
        let bytes = B.imul fb words (B.i64 8) in
        let ck = B.call fb "checksum" [ buf; bytes ] in
        W.print_result t fb ~label:"checksum" ck;
        B.ret fb (Some (B.i64 0)))
  in
  B.finish t

let profile_script = W.script_of_ints [ 400; 4 ]
let eval_script = W.script_of_ints [ 4000; 6 ]

let compile_scaler ?mobile ?server () =
  Compiler.compile ?mobile ?server ~profile_script ~eval_scale:12.0
    (build_scaler ())

let run_with config compiled =
  let session =
    Session.create ~config ~script:eval_script compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  Session.run session

let local_console compiled =
  (Local_run.run ~script:eval_script compiled.Compiler.c_original)
    .Local_run.lr_console

(* Dirty pages written on the server land back in mobile memory: the
   mobile-side checksum sees the server's writes. *)
let test_writeback_correctness () =
  let compiled = compile_scaler () in
  let report = run_with (Session.default_config ()) compiled in
  Alcotest.(check string) "console identical" (local_console compiled)
    report.Session.rep_console;
  Alcotest.(check int) "one offload" 1 report.Session.rep_offloads;
  Alcotest.(check bool) "dirty pages returned" true
    (report.Session.rep_bytes_to_mobile > 4096)

let test_copy_on_demand_vs_prefetch () =
  let compiled = compile_scaler () in
  let no_prefetch =
    { (Session.default_config ()) with Session.prefetch = false }
  in
  let r1 = run_with no_prefetch compiled in
  Alcotest.(check string) "faulting run correct" (local_console compiled)
    r1.Session.rep_console;
  Alcotest.(check bool) "faults happened" true (r1.Session.rep_faults >= 8);
  let compiled2 = compile_scaler () in
  let r2 = run_with (Session.default_config ()) compiled2 in
  Alcotest.(check bool) "prefetch avoids faults" true
    (r2.Session.rep_faults < r1.Session.rep_faults);
  Alcotest.(check bool) "prefetch is faster" true
    (r2.Session.rep_total_s < r1.Session.rep_total_s)

let test_copy_all_ablation () =
  let compiled = compile_scaler () in
  let copy_all =
    { (Session.default_config ()) with Session.copy_all = true }
  in
  let r = run_with copy_all compiled in
  Alcotest.(check string) "copy-all correct" (local_console compiled)
    r.Session.rep_console;
  Alcotest.(check bool) "ships at least the working set" true
    (r.Session.rep_bytes_to_server >= 4000 * 8)

let test_writeback_compression () =
  let with_compression compress =
    let compiled = compile_scaler () in
    let config =
      { (Session.default_config ()) with Session.compress_writeback = compress }
    in
    run_with config compiled
  in
  let on = with_compression true and off = with_compression false in
  Alcotest.(check string) "same console" on.Session.rep_console
    off.Session.rep_console;
  Alcotest.(check bool) "compression shrinks wire bytes" true
    (on.Session.rep_wire_bytes_to_mobile < off.Session.rep_wire_bytes_to_mobile);
  Alcotest.(check int) "raw bytes equal" off.Session.rep_bytes_to_mobile
    on.Session.rep_bytes_to_mobile

(* Synthetic big-endian mobile: the server code must swap bytes and
   the results must still match. *)
let test_cross_endian_offload () =
  let compiled = compile_scaler ~mobile:Arch.arm32_be () in
  let stats = compiled.Compiler.c_output.Pipeline.o_stats in
  Alcotest.(check bool) "swaps inserted" true
    (stats.Pipeline.st_endian_swaps > 0);
  let report = run_with (Session.default_config ()) compiled in
  let local =
    Local_run.run ~arch:Arch.arm32_be ~script:eval_script
      compiled.Compiler.c_original
  in
  Alcotest.(check string) "cross-endian console identical"
    local.Local_run.lr_console report.Session.rep_console;
  Alcotest.(check int) "offloaded" 1 report.Session.rep_offloads

(* 32-bit little-endian server with the IA32 struct rules: same
   pointer width (no address conversion), no endian swaps — but the
   unified layout is what keeps struct offsets agreeing (Figure 4).
   The session's server is the one the code was compiled for. *)
let test_x86_32_server () =
  let compiled = compile_scaler ~server:Arch.x86_32 () in
  let stats = compiled.Compiler.c_output.Pipeline.o_stats in
  Alcotest.(check int) "no addr conversion" 0 stats.Pipeline.st_addr_loads;
  Alcotest.(check int) "no endian swaps" 0 stats.Pipeline.st_endian_swaps;
  let session =
    Session.create ~config:(Session.default_config ()) ~script:eval_script
      compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  Alcotest.(check string) "server arch" Arch.x86_32.Arch.name
    session.Session.server.No_exec.Host.arch.Arch.name;
  let report = Session.run session in
  Alcotest.(check string) "x86_32 server correct" (local_console compiled)
    report.Session.rep_console

(* Every architecture pair: the four with a faster server are the
   ones the compiler accepts, pinned here.  On each, every registry
   program, compiled and run on its profile input over the fast link,
   offloads and prints and returns what a local run on the mobile
   prints and returns; each mobile's local runs serve both its
   servers.  Summed over the registry, the server code swaps bytes
   exactly when the byte orders differ and widens pointers exactly
   when the widths do. *)
let accepted_pairs =
  [ (Arch.arm32, [ Arch.x86_64; Arch.x86_32 ]);
    (Arch.arm32_be, [ Arch.x86_64; Arch.x86_32 ]) ]

let compile_on ~mobile ~server (e : Registry.entry) =
  Compiler.compile ~mobile ~server ~profile_script:e.Registry.e_profile_script
    ~profile_files:e.Registry.e_files ~eval_scale:e.Registry.e_eval_scale
    (e.Registry.e_build ())

(* One pair over the registry; [locals] are the mobile's local runs. *)
let check_pair ~(mobile : Arch.t) ~(server : Arch.t) locals =
  let pair = Printf.sprintf "%s -> %s" mobile.Arch.name server.Arch.name in
  let swaps = ref 0 and widened = ref 0 in
  List.iter
    (fun ((e : Registry.entry), (local : Local_run.report)) ->
      let compiled = compile_on ~mobile ~server e in
      let stats = compiled.Compiler.c_output.Pipeline.o_stats in
      swaps := !swaps + stats.Pipeline.st_endian_swaps;
      widened :=
        !widened + stats.Pipeline.st_addr_loads + stats.Pipeline.st_addr_stores;
      let report =
        Session.run
          (Session.create ~config:(Experiment.fast_config ())
             ~script:e.Registry.e_profile_script
             ~files:e.Registry.e_files compiled.Compiler.c_output
             ~seeds:compiled.Compiler.c_seeds)
      in
      let what = Printf.sprintf "%s %s: " pair e.Registry.e_name in
      Alcotest.(check string) (what ^ "console") local.Local_run.lr_console
        report.Session.rep_console;
      Alcotest.(check bool) (what ^ "return value") true
        (Value.equal local.Local_run.lr_result report.Session.rep_result);
      Alcotest.(check bool) (what ^ "offloaded") true
        (report.Session.rep_offloads > 0))
    locals;
  Alcotest.(check bool) (pair ^ ": byte swaps")
    (mobile.Arch.endianness <> server.Arch.endianness)
    (!swaps > 0);
  Alcotest.(check bool) (pair ^ ": pointer widening")
    (mobile.Arch.ptr_bits <> server.Arch.ptr_bits)
    (!widened > 0)

let test_accepted_pairs () =
  List.iter
    (fun ((mobile : Arch.t), servers) ->
      let locals =
        List.map
          (fun (e : Registry.entry) ->
            ( e,
              Local_run.run ~arch:mobile ~script:e.Registry.e_profile_script
                ~files:e.Registry.e_files (e.Registry.e_build ()) ))
          Registry.spec
      in
      List.iter (fun server -> check_pair ~mobile ~server locals) servers)
    accepted_pairs

(* The other twelve pairs have no server faster than the mobile. *)
let test_refused_pairs () =
  let gzip = Option.get (Registry.by_name "164.gzip") in
  List.iter
    (fun (mobile : Arch.t) ->
      List.iter
        (fun (server : Arch.t) ->
          let accepted =
            List.exists
              (fun ((m : Arch.t), servers) ->
                m == mobile && List.memq server servers)
              accepted_pairs
          in
          if not accepted then
            match compile_on ~mobile ~server gzip with
            | exception Compiler.No_profitable_target _ -> ()
            | _ ->
              Alcotest.failf "%s -> %s: 164.gzip compiled" mobile.Arch.name
                server.Arch.name)
        Arch.all)
    Arch.all

(* The chess Move struct crossing to an x86_32 server is the exact
   Figure 4 case: without realignment the server would read garbage
   score values.  With the unified layout, output matches. *)
let test_figure4_chess_on_x86_32 () =
  let chess = No_workloads.Chess.build () in
  let compiled =
    Compiler.compile ~server:Arch.x86_32
      ~profile_script:(No_workloads.Chess.script ~depth:3 ~turns:2)
      ~eval_scale:2.0 chess
  in
  let script = No_workloads.Chess.script ~depth:5 ~turns:2 in
  let local = Local_run.run ~script compiled.Compiler.c_original in
  let session =
    Session.create ~config:(Session.default_config ()) ~script
      compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  let report = Session.run session in
  Alcotest.(check string) "figure 4 case correct" local.Local_run.lr_console
    report.Session.rep_console;
  Alcotest.(check bool) "offloads happened" true
    (report.Session.rep_offloads > 0)

(* Stack separation: the server allocates its frames in the server
   stack region, so mobile stack pages are never dirtied by callee
   frames (only by explicit writes through shared pointers). *)
let test_stack_separation () =
  let compiled = compile_scaler () in
  let config =
    { (Session.default_config ()) with Session.prefetch = false }
  in
  let session =
    Session.create ~config ~script:eval_script compiled.Compiler.c_output
      ~seeds:compiled.Compiler.c_seeds
  in
  let report = Session.run session in
  (* hot's frame (acc alloca) lives on the server stack: no mobile
     stack page needs to travel *)
  Alcotest.(check string) "still correct" (local_console compiled)
    report.Session.rep_console

let test_power_trace_has_phases () =
  let compiled = compile_scaler () in
  let session =
    Session.create ~config:(Session.default_config ()) ~script:eval_script
      compiled.Compiler.c_output ~seeds:compiled.Compiler.c_seeds
  in
  ignore (Session.run session);
  let time state =
    No_trace.Trace.Metrics.time_in_state (Session.ledger session)
      (No_power.Power_model.state_to_string state)
  in
  Alcotest.(check bool) "computing time" true
    (time No_power.Power_model.Computing > 0.0);
  Alcotest.(check bool) "waiting time" true
    (time No_power.Power_model.Waiting > 0.0);
  Alcotest.(check bool) "transmit time" true
    (time No_power.Power_model.Transmitting > 0.0);
  Alcotest.(check bool) "receive time" true
    (time No_power.Power_model.Receiving > 0.0)

let tests =
  [
    Alcotest.test_case "write-back correctness" `Quick
      test_writeback_correctness;
    Alcotest.test_case "copy-on-demand vs prefetch" `Quick
      test_copy_on_demand_vs_prefetch;
    Alcotest.test_case "copy-all ablation" `Quick test_copy_all_ablation;
    Alcotest.test_case "write-back compression" `Quick
      test_writeback_compression;
    Alcotest.test_case "cross-endian offload" `Quick test_cross_endian_offload;
    Alcotest.test_case "x86_32 server" `Quick test_x86_32_server;
    Alcotest.test_case "figure 4 chess on x86_32" `Quick
      test_figure4_chess_on_x86_32;
    Alcotest.test_case "accepted arch pairs match local runs" `Quick
      test_accepted_pairs;
    Alcotest.test_case "refused arch pairs" `Quick test_refused_pairs;
    Alcotest.test_case "stack separation" `Quick test_stack_separation;
    Alcotest.test_case "power trace phases" `Quick test_power_trace_has_phases;
  ]

(* {1 Bandwidth prediction (the NWSLite-style extension)} *)

module Bandwidth_predictor = No_estimator.Bandwidth_predictor

let test_predictor_unit () =
  let p = Bandwidth_predictor.create ~initial_bps:10e6 in
  Alcotest.(check (float 1.0)) "initial" 10e6 (Bandwidth_predictor.predict_bps p);
  (* tiny control messages are ignored *)
  Bandwidth_predictor.observe p ~bytes:64 ~seconds:1.0;
  Alcotest.(check int) "ignored" 0 (Bandwidth_predictor.sample_count p);
  (* consistent slow samples drag the estimate down *)
  for _ = 1 to 20 do
    Bandwidth_predictor.observe p ~bytes:125_000 ~seconds:10.0
    (* = 100 kbps *)
  done;
  let predicted = Bandwidth_predictor.predict_bps p in
  Alcotest.(check bool)
    (Printf.sprintf "converged to ~100kbps (got %.0f)" predicted)
    true
    (predicted < 150_000.0 && predicted > 50_000.0)

(* A session on 802.11ac whose link collapses to 0.2 % of its rate
   from the start: the estimator's first belief is the link's
   effective rate, now stale, so the first think() offloads on it, the
   transfer observations correct it, and the remaining invocations are
   refused — mid-run adaptation with no reconfiguration. *)
let test_session_adapts_to_real_bandwidth () =
  let entry = Option.get (No_workloads.Registry.by_name "458.sjeng") in
  let compiled = Compiler.compile_entry entry in
  let plan =
    match No_fault.Plan.parse "collapse=0:0.002" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let config =
    { (Session.default_config ~link:Link.fast_wifi ()) with
      Session.faults = Some plan }
  in
  let _, report =
    Experiment.offloaded_run ~config compiled entry
  in
  Alcotest.(check int) "first invocation fooled by stale belief" 1
    report.Session.rep_offloads;
  Alcotest.(check int) "later invocations refused" 2
    report.Session.rep_refusals;
  (* and the output is still correct *)
  let local =
    Local_run.run ~script:entry.No_workloads.Registry.e_eval_script
      ~files:entry.No_workloads.Registry.e_files compiled.Compiler.c_original
  in
  Alcotest.(check string) "console identical" local.Local_run.lr_console
    report.Session.rep_console

let bandwidth_tests =
  [
    Alcotest.test_case "bandwidth predictor" `Quick test_predictor_unit;
    Alcotest.test_case "session adapts to real bandwidth" `Quick
      test_session_adapts_to_real_bandwidth;
  ]

(* {1 One source per fact} *)

(* A pointer at or above 2^31 stored and reloaded by the server of
   [arm32_be -> x86_32], where the pointer crosses memory as a
   byte-swapped i32 ([load i32, bswap, inttoptr]): it keeps its value
   only if [inttoptr] zero-fills. *)
let test_high_pointer_round_trip () =
  let t = B.create "high_pointer" in
  let ptr = Ty.Ptr Ty.I8 in
  B.global t "slot" ptr Ir.Zero_init;
  let _ =
    B.func t "hot" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        let p =
          B.cast fb Ir.Int_to_ptr ~src:Ty.I32 (B.i32 0x9000_0010) ~dst:ptr
        in
        B.store fb ptr p (Ir.Global "slot");
        let q = B.load fb ptr (Ir.Global "slot") in
        B.ret fb (Some (B.cast fb Ir.Ptr_to_int ~src:ptr q ~dst:Ty.I64)))
  in
  let _ =
    B.func t "main" ~params:[] ~ret:Ty.I64 (fun fb _ ->
        W.print_result t fb ~label:"addr" (B.call fb "hot" []);
        B.ret fb (Some (B.i64 0)))
  in
  let m = B.finish t in
  let output =
    Pipeline.run ~mobile:Arch.arm32_be ~server:Arch.x86_32
      ~targets:[ "hot" ] m
  in
  let config =
    { (Session.default_config ()) with
      Session.decision = Session.Always_offload }
  in
  let report = Session.run (Session.create ~config output ~seeds:[]) in
  let local = Local_run.run ~arch:Arch.arm32_be m in
  Alcotest.(check int) "offloaded" 1 report.Session.rep_offloads;
  Alcotest.(check bool) "local run prints the address" true
    (String.equal local.Local_run.lr_console "addr=2415919120\n");
  Alcotest.(check string) "console" local.Local_run.lr_console
    report.Session.rep_console

(* The link carries its radio: a session on 802.11n built from the
   default config draws what the slow-network configuration does,
   the 802.11n radio's 1700 mW while serving remote I/O, on a program
   that offloads and serves remote I/O there. *)
let test_link_sets_radio () =
  let e = Option.get (Registry.by_name "300.twolf") in
  let compiled = Compiler.compile_entry e in
  let run config =
    let session =
      Session.create ~config ~script:e.Registry.e_profile_script
        ~files:e.Registry.e_files compiled.Compiler.c_output
        ~seeds:compiled.Compiler.c_seeds
    in
    let report = Session.run session in
    (report, Session.ledger session)
  in
  let default, ledger =
    run (Session.default_config ~link:Link.slow_wifi ())
  in
  let slow, _ = run (Experiment.slow_config ()) in
  Alcotest.(check bool) "offloads" true (default.Session.rep_offloads > 0);
  Alcotest.(check bool) "remote I/O" true
    (default.Session.rep_remote_io_ops > 0);
  List.iter
    (fun (_, mw, _, state) ->
      if String.equal state "remote-io" then
        Alcotest.(check (float 0.0)) "remote-I/O draw" 1700.0 mw)
    (No_trace.Trace.Metrics.power_segments ledger);
  Alcotest.(check int64) "energy"
    (Int64.bits_of_float slow.Session.rep_energy_mj)
    (Int64.bits_of_float default.Session.rep_energy_mj)

let single_source_tests =
  [
    Alcotest.test_case "high pointer crosses arm32_be -> x86_32" `Quick
      test_high_pointer_round_trip;
    Alcotest.test_case "link sets the radio" `Quick test_link_sets_radio;
  ]

let tests = tests @ bandwidth_tests @ single_source_tests
