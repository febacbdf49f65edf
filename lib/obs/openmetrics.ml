(* OpenMetrics / Prometheus text exposition of a run.

   Naming scheme (documented in DESIGN.md §12):

     offload_<noun>_total            event counters
     offload_<noun>_seconds_total    accumulated charged time
     offload_<noun>_bytes_total      accumulated bytes, with a
                                     direction="to-server|to-mobile"
                                     label where both directions exist
     offload_run_duration_seconds    wall clock (gauge)
     offload_latency_seconds{kind=}  per-event-kind summaries
                                     (quantile samples + _sum/_count)
     offload_window_*                per-interval samples, stamped
                                     with the window start timestamp

   Everything is emitted in a fixed order with fixed float formatting,
   so a deterministic run exposes deterministic text — the bench lane
   diffs the file across PRs. *)

module Trace = No_trace.Trace

let fm v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let quantiles = [ 0.5; 0.9; 0.95; 0.99 ]

let of_run ?series (m : Trace.Metrics.t) : string =
  let b = Buffer.create 4096 in
  let family name kind help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let sample ?labels ?ts name v =
    Buffer.add_string b name;
    (match labels with
    | Some kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%s=\"%s\"" k v))
        kvs;
      Buffer.add_char b '}'
    | None -> ());
    Buffer.add_char b ' ';
    Buffer.add_string b (fm v);
    (match ts with
    | Some ts ->
      Buffer.add_char b ' ';
      Buffer.add_string b (fm ts)
    | None -> ());
    Buffer.add_char b '\n'
  in
  let counter name help v =
    family name "counter" help;
    sample (name ^ "_total") v
  in
  let directional name help ~to_server ~to_mobile =
    family name "counter" help;
    sample ~labels:[ ("direction", "to-server") ] (name ^ "_total")
      (float_of_int to_server);
    sample ~labels:[ ("direction", "to-mobile") ] (name ^ "_total")
      (float_of_int to_mobile)
  in
  let c name help v = counter name help (float_of_int v) in
  c "offload_offloads" "Completed offload invocations" m.Trace.Metrics.offloads;
  c "offload_refusals" "Estimator refusals (task ran locally)"
    m.Trace.Metrics.refusals;
  c "offload_estimates" "Equation-1 decisions taken" m.Trace.Metrics.estimates;
  c "offload_page_faults" "Copy-on-demand page faults served"
    m.Trace.Metrics.fault_count;
  c "offload_prefetched_pages" "Pages shipped ahead of demand"
    m.Trace.Metrics.prefetched_pages;
  c "offload_prefetched_bytes" "Bytes shipped ahead of demand"
    m.Trace.Metrics.prefetched_bytes;
  c "offload_fnptr_translations" "Function-pointer translations"
    m.Trace.Metrics.fnptr_count;
  c "offload_remote_io_ops" "Remote I/O operations served"
    m.Trace.Metrics.remote_io_count;
  c "offload_faults_injected" "Injected faults that fired"
    m.Trace.Metrics.faults_injected;
  c "offload_rpc_timeouts" "Blocking exchanges that waited out a deadline"
    m.Trace.Metrics.rpc_timeouts;
  c "offload_retries" "Exchange re-attempts after backoff"
    m.Trace.Metrics.retries;
  c "offload_fallbacks" "Offloads abandoned to local replay"
    m.Trace.Metrics.fallbacks;
  c "offload_rollbacks" "Snapshot rollbacks" m.Trace.Metrics.rollbacks;
  c "offload_replays" "Local replays after rollback" m.Trace.Metrics.replays;
  c "offload_queued" "Offloads that waited in the admission queue"
    m.Trace.Metrics.queued;
  c "offload_admits" "Offloads granted a server worker slot"
    m.Trace.Metrics.admits;
  c "offload_rejects" "Offloads bounced by a full admission queue"
    m.Trace.Metrics.rejects;
  directional "offload_flushes" "Channel flushes per direction"
    ~to_server:m.Trace.Metrics.flushes_to_server
    ~to_mobile:m.Trace.Metrics.flushes_to_mobile;
  directional "offload_raw_bytes" "Payload bytes before compression"
    ~to_server:m.Trace.Metrics.raw_to_server
    ~to_mobile:m.Trace.Metrics.raw_to_mobile;
  directional "offload_wire_bytes" "Bytes that crossed the link"
    ~to_server:m.Trace.Metrics.wire_to_server
    ~to_mobile:m.Trace.Metrics.wire_to_mobile;
  counter "offload_transfer_seconds" "Link time charged"
    m.Trace.Metrics.transfer_s;
  counter "offload_codec_seconds" "Compression and decompression CPU"
    m.Trace.Metrics.codec_s;
  counter "offload_fault_service_seconds" "Copy-on-demand service time"
    m.Trace.Metrics.fault_s;
  counter "offload_fnptr_seconds" "Function-pointer translation time"
    m.Trace.Metrics.fnptr_s;
  counter "offload_remote_io_seconds" "Remote I/O service time"
    m.Trace.Metrics.remote_io_s;
  counter "offload_offload_span_seconds" "Time inside offload spans"
    m.Trace.Metrics.offload_span_s;
  counter "offload_retry_wait_seconds" "Deadline waits plus backoffs"
    m.Trace.Metrics.retry_wait_s;
  counter "offload_recovery_seconds" "Wall time lost to failed attempts"
    m.Trace.Metrics.recovery_s;
  counter "offload_replay_seconds" "Local re-execution after rollback"
    m.Trace.Metrics.replay_s;
  counter "offload_queue_wait_seconds" "Admission-queue waiting time"
    m.Trace.Metrics.queue_wait_s;
  counter "offload_energy_millijoules" "Battery energy drawn"
    m.Trace.Metrics.energy_mj;
  family "offload_run_duration_seconds" "gauge" "Wall clock of the run";
  sample "offload_run_duration_seconds" (Trace.Metrics.total_s m);
  family "offload_power_state_seconds" "counter"
    "Residency per power state";
  List.iter
    (fun (state, seconds) ->
      sample
        ~labels:[ ("state", state) ]
        "offload_power_state_seconds_total" seconds)
    (Trace.Metrics.residency m);
  (match series with
  | None -> ()
  | Some series ->
    (* Whole-run latency summaries: merged windowed histograms. *)
    family "offload_latency_seconds" "summary"
      "Per-event-kind latency distribution";
    List.iter
      (fun kind ->
        let h = Series.kind_hist series kind in
        if Hist.count h > 0 then begin
          List.iter
            (fun q ->
              sample
                ~labels:
                  [ ("kind", kind); ("quantile", Printf.sprintf "%g" q) ]
                "offload_latency_seconds" (Hist.quantile h q))
            quantiles;
          sample ~labels:[ ("kind", kind) ] "offload_latency_seconds_sum"
            (Hist.sum h);
          sample ~labels:[ ("kind", kind) ] "offload_latency_seconds_count"
            (float_of_int (Hist.count h))
        end)
      Trace.latency_names;
    (* Exemplar-bearing histogram family: only emitted when the trace
       sampler attached exemplars, so an unsampled run's exposition is
       byte-identical to what it was before exemplars existed.  Fixed
       decade bounds; each bucket line carries the largest exemplar
       whose value falls in that bucket, in OpenMetrics exemplar
       syntax (`# {trace_id="..."} value`). *)
    let bounds = [ 1e-4; 1e-3; 1e-2; 1e-1; 1.0 ] in
    let exm_in lo hi exs =
      List.fold_left
        (fun best (id, v) ->
          if v > lo && v <= hi then
            match best with
            | Some (_, bv) when bv >= v -> best
            | _ -> Some (id, v)
          else best)
        None exs
    in
    let kinds_with_exemplars =
      List.filter_map
        (fun kind ->
          let h = Series.kind_hist series kind in
          match Hist.exemplars h with [] -> None | exs -> Some (kind, h, exs))
        Trace.latency_names
    in
    if kinds_with_exemplars <> [] then begin
      family "offload_latency_seconds_hist" "histogram"
        "Per-event-kind latency histogram with sampled-trace exemplars";
      List.iter
        (fun (kind, h, exs) ->
          let bucket le_label cnt exm =
            Buffer.add_string b
              (Printf.sprintf
                 "offload_latency_seconds_hist_bucket{kind=\"%s\",le=\"%s\"} %d"
                 kind le_label cnt);
            (match exm with
            | Some (id, v) ->
              Buffer.add_string b
                (Printf.sprintf " # {trace_id=\"%s\"} %s" id (fm v))
            | None -> ());
            Buffer.add_char b '\n'
          in
          let prev = ref neg_infinity in
          List.iter
            (fun le ->
              bucket (fm le) (Hist.count_le h le) (exm_in !prev le exs);
              prev := le)
            bounds;
          bucket "+Inf" (Hist.count h) (exm_in !prev infinity exs);
          sample ~labels:[ ("kind", kind) ]
            "offload_latency_seconds_hist_count"
            (float_of_int (Hist.count h));
          sample ~labels:[ ("kind", kind) ] "offload_latency_seconds_hist_sum"
            (Hist.sum h))
        kinds_with_exemplars
    end;
    (* Per-interval samples, stamped with the window start. *)
    let windowed name help select =
      family name "gauge" help;
      List.iter
        (fun (w : Series.window) ->
          match select w with
          | None -> ()
          | Some v -> sample ~ts:w.Series.w_start_s name v)
        (Series.windows series)
    in
    let wm (w : Series.window) = w.Series.w_metrics in
    windowed "offload_window_offloads" "Offloads begun per interval"
      (fun w -> Some (float_of_int (wm w).Trace.Metrics.offloads));
    windowed "offload_window_page_faults" "Page faults per interval"
      (fun w -> Some (float_of_int (wm w).Trace.Metrics.fault_count));
    windowed "offload_window_wire_bytes" "Wire bytes per interval (both \
                                          directions)"
      (fun w ->
        Some
          (float_of_int
             ((wm w).Trace.Metrics.wire_to_server
             + (wm w).Trace.Metrics.wire_to_mobile)));
    windowed "offload_window_retries" "Retries per interval"
      (fun w -> Some (float_of_int (wm w).Trace.Metrics.retries));
    windowed "offload_window_rejects" "Admission rejects per interval"
      (fun w -> Some (float_of_int (wm w).Trace.Metrics.rejects));
    windowed "offload_window_admits" "Admissions per interval"
      (fun w -> Some (float_of_int (wm w).Trace.Metrics.admits));
    windowed "offload_window_queue_depth_peak"
      "Peak admission-queue depth per interval"
      (fun w -> Some (float_of_int w.Series.w_peak_queue_depth));
    windowed "offload_window_occupancy_peak"
      "Peak concurrent server occupancy per interval"
      (fun w -> Some (float_of_int w.Series.w_peak_occupancy));
    windowed "offload_window_bw_belief_bps"
      "Last sampled bandwidth belief per interval"
      (fun w ->
        if Float.is_nan w.Series.w_bw_bps then None
        else Some w.Series.w_bw_bps));
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let write path ?series m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (of_run ?series m))

(* {1 Self-profile exposition}

   Takes the rows (not the profiler's global state) so fixed-row tests
   can lock the format byte-for-byte. *)

let of_selfprof ?(unwound = 0) (rows : No_selfprof.Selfprof.row list) : string
    =
  let b = Buffer.create 1024 in
  let family name kind help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let per_zone name select =
    List.iter
      (fun (r : No_selfprof.Selfprof.row) ->
        Buffer.add_string b
          (Printf.sprintf "%s{zone=\"%s\"} %s\n" name r.r_zone
             (fm (select r))))
      rows
  in
  family "selfprof_zone_calls" "counter"
    "Simulator self-profile: zone entries";
  per_zone "selfprof_zone_calls_total" (fun r -> float_of_int r.r_calls);
  family "selfprof_zone_self_seconds" "counter"
    "Simulator self-profile: CPU self-time per zone";
  per_zone "selfprof_zone_self_seconds_total" (fun r -> r.r_self_s);
  family "selfprof_zone_self_words" "counter"
    "Simulator self-profile: minor-heap words allocated per zone";
  per_zone "selfprof_zone_self_words_total" (fun r -> r.r_self_words);
  family "selfprof_unwound_frames" "counter"
    "Zone frames discarded by exceptional unwinds";
  Buffer.add_string b
    (Printf.sprintf "selfprof_unwound_frames_total %s\n"
       (fm (float_of_int unwound)));
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let write_selfprof path ?unwound rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (of_selfprof ?unwound rows))
