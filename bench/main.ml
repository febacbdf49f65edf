(* Benchmark harness: the two lanes the bench guard
   (scripts/bench_guard.py) reads.

     dune exec bench/main.exe -- fleet        fleet-scale policy sweep
     dune exec bench/main.exe -- micro        self-profiled micro lane

   Each mode's section says what it measures, and [modes] at the end
   lists its flags.  The paper's tables and figures, and the
   design-choice ablations, regenerate with `offload-cli report` and
   `offload-cli headline`, not here.  The
   registry's simulated runs need no lane: test/test_golden.ml and
   test/test_fault.ml pin them bit for bit. *)

open No_prelude.Prelude

(* 64 KiB of slowly varying bytes: the micro lane's compressor input. *)
let compressible_page =
  lazy
    (let data = Bytes.create 65536 in
     for i = 0 to 65535 do
       Bytes.set data i (Char.chr ((i / 97) land 0xff))
     done;
     data)

(* {1 Headline JSON}

   The CI bench job runs both lanes at reduced scale and writes each
   lane's headline numbers as a flat JSON object ([--json FILE]);
   scripts/bench_guard.py merges them into BENCH_pr.json and compares
   against the committed BENCH_baseline.json. *)

let write_json path (fields : (string * string) list) =
  let oc = open_out path in
  output_string oc "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc "\n  \"%s\": %s" k v)
    fields;
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let json_f v = Printf.sprintf "%.6f" v
let json_i v = string_of_int v

(* Host wall-clock seconds since [t0]. *)
let wall_since t0 =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

(* {1 Fleet-scale sweep}

   The discrete-event core at fleet scale: 10^3+ tiny synthetic
   sessions (fleet.micro, with a slice of the long-running heavy
   variant) against a pool of K servers, once per routing policy.
   Event recording is off — latencies stream into the simulator's
   histogram — so the sweep measures the scheduler, not trace
   bookkeeping.  The simulated numbers (geomean, makespan, per-policy
   throughput) are deterministic; the host-side clients/sec and
   events/sec are the wall-clock headline the bench guard soft-floors. *)

let fleet_mix = [ "fleet.micro"; "fleet.micro"; "fleet.micro.heavy" ]

(* Recording off; every event streams into [series] through the
   simulator's global sink, and [sampler], if any, keeps whole
   tasks. *)
let fleet_config ?sampler ~servers ~slots ~queue ~policy series =
  { Sim.default_config with
    Sim.s_load =
      { Server_load.default with Server_load.slots;
        Server_load.queue_cap = queue };
    Sim.s_servers = servers;
    Sim.s_policy = policy;
    Sim.s_record_events = false;
    Sim.s_global_sink = Some (Series.sink series);
    Sim.s_sampler = sampler }

(* FNV-1a over the kept-trace id list — the determinism fingerprint
   the bench guard compares exactly: any change to the kept set (one
   id added, dropped or reordered) changes the hash. *)
let kept_hash sampler =
  let h = ref 0xcbf29ce484222325L in
  let byte b = h := Int64.mul (Int64.logxor !h (Int64.of_int b)) 0x100000001b3L in
  List.iter
    (fun id ->
      String.iter (fun c -> byte (Char.code c)) id;
      byte 0x0a)
    (Trace.Sampler.kept_ids sampler);
  Printf.sprintf "%016Lx" !h

(* The sweep saturates on purpose, so verdicts use
   [Slo.fleet_default_spec] (an availability floor), not the serving
   target — see the note on that spec. *)
let run_fleet ?(clients = 1000) ?(servers = 4) ?(slots = 2) ?(queue = 2)
    ?sample ?(sample_seed = 42) ?json ?incidents_out ?metrics_out () =
  let slo = Slo.fleet_default_spec in
  let objectives = Result.get_ok (Slo.parse slo) in
  (* One run of the sweep under [policy].  Its SLO verdicts come from
     a fresh windowed series on the streaming global sink — no
     per-client rings, so the sweep still measures the scheduler.
     With [budget], a sampler keeps tasks by the seeded stateless RNG
     and attaches their exemplars to the same series. *)
  let run_policy ?budget policy =
    let series = Series.create () in
    let sampler =
      Option.map
        (fun budget ->
          Trace.Sampler.create ~slo_limit_s:(Slo.span_limit_s objectives)
            ~exemplar:(Series.add_exemplar series)
            ~keep:(fun ~client ~task ->
              Rng.task_keep ~seed:(Int64.of_int sample_seed) ~client ~task
                ~budget)
            ())
        budget
    in
    let cs =
      Sim.make_clients ~stagger_s:0.0005 ~workloads:fleet_mix ~count:clients ()
    in
    let config = fleet_config ?sampler ~servers ~slots ~queue ~policy series in
    let t0 = Monotonic_clock.now () in
    let result = Sim.run ~config cs in
    (result, wall_since t0, series, sampler)
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Fleet sweep (%d clients, %d servers x %d slots, queue %d, mix \
            %s)"
           clients servers slots queue
           (String.concat "," fleet_mix))
      [ "policy"; "geomean speedup"; "local flips"; "queued"; "rejects";
        "makespan (s)"; "sim c/s"; "host c/s"; "host events/s"; "p95 (s)";
        "SLO" ]
  in
  let json_fields = ref [] in
  let sampled_incidents = ref [] in     (* (short, incident list), policy order *)
  let metrics_series = ref None in      (* first policy's sampled series *)
  let full_ev = ref 0.0 and full_wall = ref 0.0 in
  let samp_ev = ref 0.0 and samp_wall = ref 0.0 in
  List.iter
    (fun policy ->
      let result, wall_s, series, _ = run_policy policy in
      let verdicts = Slo.evaluate objectives series in
      let st = result.Sim.r_stats in
      let short =
        match policy with
        | Pool.Round_robin -> "rr"
        | Pool.Least_loaded -> "ll"
        | Pool.Sticky -> "sticky"
      in
      Table.add_row table
        [
          Pool.policy_to_string policy;
          Table.cell_f ~digits:3 (Sim.geomean_speedup result);
          Table.cell_i (Sim.flipped_local result);
          Table.cell_i st.Server_load.st_queued;
          Table.cell_i st.Server_load.st_rejects;
          Table.cell_f ~digits:3 result.Sim.r_makespan_s;
          Table.cell_f ~digits:1 result.Sim.r_throughput;
          Table.cell_f ~digits:0 (float_of_int clients /. wall_s);
          Table.cell_f ~digits:0 (float_of_int result.Sim.r_events /. wall_s);
          Table.cell_f ~digits:4 (Sim.latency_percentile result ~p:95.0);
          (if Slo.pass verdicts then "pass" else "FAIL");
        ];
      Printf.printf "SLO [%s] (%s): %s\n" slo
        (Pool.policy_to_string policy)
        (Slo.render verdicts);
      json_fields :=
        !json_fields
        @ [
            ( Printf.sprintf "fleet_%s_geomean" short,
              json_f (Sim.geomean_speedup result) );
            ( Printf.sprintf "fleet_%s_throughput" short,
              json_f result.Sim.r_throughput );
            ( Printf.sprintf "fleet_%s_clients_per_sec" short,
              json_f (float_of_int clients /. wall_s) );
            ( Printf.sprintf "fleet_%s_slo_pass" short,
              if Slo.pass verdicts then "true" else "false" );
          ];
      match sample with
      | None -> ()
      | Some budget ->
        (* Sampled leg of the same policy: overhead headline (events/s
           vs. the full-capture run above), kept-set count + hash for
           the determinism guard, incident timeline and exemplars. *)
        let sresult, swall_s, sseries, sampler =
          run_policy ~budget policy
        in
        let sampler = Option.get sampler in
        full_ev := !full_ev +. float_of_int result.Sim.r_events;
        full_wall := !full_wall +. wall_s;
        samp_ev := !samp_ev +. float_of_int sresult.Sim.r_events;
        samp_wall := !samp_wall +. swall_s;
        let incidents = Incident.detect objectives sseries in
        sampled_incidents := !sampled_incidents @ [ (short, incidents) ];
        if !metrics_series = None then metrics_series := Some sseries;
        Printf.printf
          "sampling [%s] budget %g: kept %d/%d tasks (%s), rows %d/%d, \
           peak buffered rows %d\n"
          (Pool.policy_to_string policy)
          budget
          (Trace.Sampler.kept sampler)
          (Trace.Sampler.tasks sampler)
          (String.concat ", "
             (List.map
                (fun (r, n) -> Printf.sprintf "%s %d" r n)
                (Trace.Sampler.reasons sampler)))
          (Trace.Sampler.rows_kept sampler)
          (Trace.Sampler.rows_seen sampler)
          (Trace.Sampler.buffered_rows_peak sampler);
        Printf.printf "incidents [%s]:\n%s\n"
          (Pool.policy_to_string policy)
          (Incident.render incidents);
        json_fields :=
          !json_fields
          @ [
              ( Printf.sprintf "fleet_%s_sampled_kept" short,
                json_i (Trace.Sampler.kept sampler) );
              ( Printf.sprintf "fleet_%s_kept_hash" short,
                Printf.sprintf "\"%s\"" (kept_hash sampler) );
            ])
    Pool.all_policies;
  Table.print table;
  (match sample with
  | None -> ()
  | Some budget ->
    let ratio =
      if !full_ev > 0.0 && !samp_wall > 0.0 && !full_wall > 0.0 then
        !samp_ev /. !samp_wall /. (!full_ev /. !full_wall)
      else 1.0
    in
    Printf.printf "\nsampling overhead: %.0f events/s sampled vs %.0f full \
                   (ratio %.3f)\n"
      (!samp_ev /. !samp_wall) (!full_ev /. !full_wall) ratio;
    json_fields :=
      !json_fields
      @ [
          ("fleet_sample_budget", json_f budget);
          ("fleet_sample_seed", json_i sample_seed);
          ("fleet_sample_vs_full_ratio", json_f ratio);
        ];
    Option.iter
      (fun path ->
        (* One jsonl stream across policies: each incident's label is
           prefixed with its policy key so lines stay self-describing. *)
        let all =
          List.concat_map
            (fun (short, incidents) ->
              List.map
                (fun (i : Incident.incident) ->
                  { i with Incident.i_label = short ^ "/" ^ i.Incident.i_label })
                incidents)
            !sampled_incidents
        in
        Incident.save path all)
      incidents_out;
    Option.iter
      (fun path ->
        match !metrics_series with
        | Some series ->
          Openmetrics.write path ~series (Series.totals series)
        | None -> ())
      metrics_out);
  Option.iter
    (fun path ->
      write_json path
        ([ ("mode", "\"fleet\"");
           ("clients", json_i clients);
           ("servers", json_i servers);
           ("slots", json_i slots);
           ("queue", json_i queue) ]
        @ !json_fields))
    json

(* {1 Self-profiled micro-bench lane}

   The measurement substrate for ROADMAP item 3: what does the
   simulator itself cost per unit of work?  Two legs:

   - a fleet leg — a small saturated fleet run (300 clients, the fleet
     mix, recording off) with the self-profiler on.  Simulated event
     count and total allocated words are deterministic; wall time is
     not, so events/sec is a host-dependent headline (guarded by a
     floor) while allocs/event tracks the baseline within tolerance;
   - a compressor leg — the 64 KiB structured page through
     [Compress.compress], giving bytes-compressed/sec (host-dependent)
     and the deterministic achieved ratio.

   Timing-derived numbers run [trials] measured trials after one
   discarded warmup trial (lazy registry/compiler state, cold caches)
   and report the median; the CI lane uses --trials 3.  Deterministic
   numbers are asserted identical across trials instead of averaged. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let run_micro ?(trials = 3) ?json ?selfprof_out () =
  (* Fleet leg. *)
  let fleet_clients = 300 in
  let fleet_trial () =
    let cs =
      Sim.make_clients ~stagger_s:0.0005 ~workloads:fleet_mix
        ~count:fleet_clients ()
    in
    (* Global series sink on, like run_fleet: the per-event path then
       exercises the sink-emit and hist zones, not just the
       scheduler. *)
    let config =
      fleet_config ~servers:4 ~slots:2 ~queue:2 ~policy:Pool.Round_robin
        (Series.create ())
    in
    let w0 = Selfprof.allocated_words () in
    let t0 = Monotonic_clock.now () in
    let result = Sim.run ~config cs in
    let wall_s = wall_since t0 in
    let words = Selfprof.allocated_words () -. w0 in
    (result.Sim.r_events, wall_s, words)
  in
  Selfprof.enable ();
  Selfprof.reset ();
  ignore (fleet_trial ());          (* warmup: forces lazy state *)
  Selfprof.reset ();                (* zone table covers measured trials *)
  let fleet_runs = List.init trials (fun _ -> fleet_trial ()) in
  let events, _, _ = List.hd fleet_runs in
  List.iter
    (fun (e, _, _) ->
      if e <> events then begin
        prerr_endline "bench micro: event count varied across trials";
        exit 1
      end)
    fleet_runs;
  let fleet_wall_s = median (List.map (fun (_, w, _) -> w) fleet_runs) in
  let words_per_event =
    median (List.map (fun (_, _, w) -> w) fleet_runs) /. float_of_int events
  in
  let events_per_sec = float_of_int events /. fleet_wall_s in
  (* Compressor leg. *)
  let page = Lazy.force compressible_page in
  let reps = 32 in
  let compress_trial () =
    let t0 = Monotonic_clock.now () in
    for _ = 1 to reps do
      ignore (Compress.compress page)
    done;
    wall_since t0
  in
  ignore (compress_trial ());
  let compress_wall_s = median (List.init trials (fun _ -> compress_trial ())) in
  let compress_bytes_per_sec =
    float_of_int (reps * Bytes.length page) /. compress_wall_s
  in
  let compress_ratio = Compress.ratio page in
  Selfprof.disable ();
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Micro-bench lane (%d trial(s) + 1 warmup, median; fleet leg: %d \
            clients)"
           trials fleet_clients)
      [ "headline"; "value" ]
  in
  Table.add_row table
    [ "sim events (deterministic)"; Table.cell_i events ];
  Table.add_row table [ "events/sec"; Table.cell_f ~digits:0 events_per_sec ];
  Table.add_row table
    [ "allocs/event (words)"; Table.cell_f ~digits:1 words_per_event ];
  Table.add_row table
    [ "compress bytes/sec"; Table.cell_f ~digits:0 compress_bytes_per_sec ];
  Table.add_row table
    [ "compress ratio"; Table.cell_f ~digits:4 compress_ratio ];
  Table.print table;
  print_newline ();
  print_string (Selfprof.report ());
  Option.iter
    (fun path ->
      Openmetrics.write_selfprof path ~unwound:(Selfprof.unwound ())
        (Selfprof.rows ());
      Printf.printf "\nwrote %s\n" path)
    selfprof_out;
  Option.iter
    (fun path ->
      write_json path
        [ ("mode", "\"micro\"");
          ("trials", json_i trials);
          ("micro_sim_events", json_i events);
          ("micro_events_per_sec", json_f events_per_sec);
          ("micro_allocs_per_event_w", json_f words_per_event);
          ("micro_compress_bytes_per_sec", json_f compress_bytes_per_sec);
          ("micro_compress_ratio", json_f compress_ratio) ])
    json

(* {1 Command line}

   [main.exe MODE [--flag VALUE]...]: each mode takes only the flags
   listed beside it.  An unknown mode or flag, a flag without a value
   and a value that does not parse each exit 1 with a message that
   names it. *)

let modes =
  [
    ( "fleet",
      [ "--clients"; "--servers"; "--slots"; "--queue"; "--sample";
        "--sample-seed"; "--json"; "--incidents-out"; "--metrics-out" ] );
    ("micro", [ "--trials"; "--json"; "--selfprof-out" ]);
  ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

let flag_list = function
  | [] -> "no flags"
  | flags -> String.concat " " flags

let usage () =
  prerr_endline "usage: main.exe MODE [--flag VALUE]...\nmodes:";
  List.iter
    (fun (mode, flags) -> Printf.eprintf "  %-12s %s\n" mode (flag_list flags))
    modes;
  exit 1

let () =
  let mode, args =
    match Array.to_list Sys.argv with
    | _ :: mode :: args when List.mem_assoc mode modes -> (mode, args)
    | _ :: mode :: _ ->
      prerr_endline ("bench: unknown mode " ^ mode);
      usage ()
    | _ -> usage ()
  in
  let accepted = List.assoc mode modes in
  let rec pairs = function
    | [] -> []
    | flag :: _ when not (List.mem flag accepted) ->
      die "%s: unknown flag %s (accepted: %s)" mode flag (flag_list accepted)
    | [ flag ] -> die "%s: %s needs a value" mode flag
    | flag :: value :: rest -> (flag, value) :: pairs rest
  in
  let pairs = pairs args in
  let str flag = List.assoc_opt flag pairs in
  let parsed what of_string flag =
    Option.map
      (fun value ->
        match of_string value with
        | Some v -> v
        | None -> die "%s: %s expects %s, got %S" mode flag what value)
      (str flag)
  in
  let int = parsed "an integer" int_of_string_opt in
  let count =
    parsed "a positive integer" (fun s ->
        Option.bind (int_of_string_opt s) (fun n ->
            if n >= 1 then Some n else None))
  in
  match mode with
  | "fleet" ->
    run_fleet ?clients:(count "--clients") ?servers:(count "--servers")
      ?slots:(count "--slots") ?queue:(int "--queue")
      ?sample:
        (parsed "a budget in [0,1]"
           (fun s ->
             Option.bind (float_of_string_opt s) (fun b ->
                 if b >= 0.0 && b <= 1.0 then Some b else None))
           "--sample")
      ?sample_seed:(int "--sample-seed") ?json:(str "--json")
      ?incidents_out:(str "--incidents-out")
      ?metrics_out:(str "--metrics-out") ()
  | "micro" ->
    run_micro ?trials:(count "--trials") ?json:(str "--json")
      ?selfprof_out:(str "--selfprof-out") ()
  | _ -> usage ()
