(* Windowed time series over the runtime event stream.

   The aggregate views (Metrics, Span, Hist) answer "how much, in
   total"; a Series answers "when".  The virtual timeline is cut into
   fixed-width windows and every event is charged to the window its
   *start* timestamp falls in — the same stamping convention as the
   sinks — so a window holds:

     - a Trace.Metrics fold of just that interval's counters, bytes
       and seconds, but no power segments: a segment would be charged
       whole to the window its start falls in, so per-window energy
       is not an interval quantity, and no per-window reader wants it;
     - one latency histogram per event kind (lossless HDR sketches, so
       merging all windows reproduces the whole-run distribution);
     - gauges: peak queue depth, peak slot occupancy and the bandwidth
       predictor's latest sampled belief.

   Beside the windows, every event is folded into one whole-run
   Trace.Metrics as it streams: [totals] is that record, equal field
   for field, bit for bit, to any other sink's fold of the same stream.

   Everything is driven by the simulated clock, never the host's, so
   a seeded rerun produces a byte-identical series. *)

module Trace = No_trace.Trace

let default_window_s = 1.0

type window = {
  w_index : int;
  w_start_s : float;
  w_metrics : Trace.Metrics.t;
  w_hists : (string * Hist.t) list;      (* Trace.latency_names order *)
  mutable w_peak_queue_depth : int;
  mutable w_peak_occupancy : int;
  mutable w_server_peaks : (int * int) list;
      (* per-server peak admit occupancy, ascending server id; servers
         with no admit in the window are absent *)
  mutable w_bw_bps : float;              (* latest sampled belief; NaN = none *)
}

(* A window plus its latency histograms as an array, indexed in
   [Trace.latency_names] order so the per-event charge is one array
   read instead of an assoc walk.  The array aliases the same [Hist.t]
   values as the public [w_hists] list.  [s_bw_ts] stamps the belief
   in [w_bw_bps]: a fleet streams its clients' events out of time
   order, and the gauge keeps the latest sample in simulated time. *)
type slot = { sw : window; s_harr : Hist.t array; mutable s_bw_ts : float }

type t = {
  window_s : float;
  total : Trace.Metrics.t;               (* the whole run's fold *)
  by_index : (int, slot) Hashtbl.t;
  mutable max_index : int;               (* highest window touched; -1 = none *)
  mutable end_s : float;                 (* latest instant any event reaches *)
  mutable last_index : int;              (* cached slot; -1 = none *)
  mutable last_slot : slot option;
}

let create ?(window_s = default_window_s) () =
  if not (window_s > 0.0) then invalid_arg "Series.create: window_s";
  {
    window_s;
    total = Trace.Metrics.create ();
    by_index = Hashtbl.create 64;
    max_index = -1;
    end_s = 0.0;
    last_index = -1;
    last_slot = None;
  }

let window_s t = t.window_s
let duration_s t = t.end_s

let fresh_slot t index =
  let hists =
    List.map (fun name -> (name, Hist.create ())) Trace.latency_names
  in
  {
    sw =
      {
        w_index = index;
        w_start_s = float_of_int index *. t.window_s;
        w_metrics = Trace.Metrics.create ();
        w_hists = hists;
        w_peak_queue_depth = 0;
        w_peak_occupancy = 0;
        w_server_peaks = [];
        w_bw_bps = Float.nan;
      };
    s_harr = Array.of_list (List.map snd hists);
    s_bw_ts = neg_infinity;
  }

let slot_at t index =
  if index = t.last_index then
    match t.last_slot with Some s -> s | None -> assert false
  else begin
    let s =
      match Hashtbl.find_opt t.by_index index with
      | Some s -> s
      | None ->
        let s = fresh_slot t index in
        Hashtbl.replace t.by_index index s;
        if index > t.max_index then t.max_index <- index;
        s
    in
    t.last_index <- index;
    t.last_slot <- Some s;
    s
  end

let window_at t index = (slot_at t index).sw

(* Every event folds into the run's record, and all but power
   segments into the window's; the (at most one) latency sample goes
   to the window's histogram, and the gauges read the event's
   fields. *)
let sink t : Trace.sink =
 fun ~ts ev ->
  let index =
    if ts <= 0.0 then 0 else int_of_float (Float.floor (ts /. t.window_s))
  in
  let s = slot_at t index in
  let w = s.sw in
  Trace.Metrics.sink t.total ~ts ev;
  (match ev with
  | Trace.Power_state _ -> ()
  | _ -> Trace.Metrics.sink w.w_metrics ~ts ev);
  let li = Trace.latency_slot ev in
  if li >= 0 then Hist.add s.s_harr.(li) (Trace.latency ev);
  (match ev with
  | Trace.Queue { depth; _ } ->
    (* [depth] requests already waiting, plus this one. *)
    w.w_peak_queue_depth <- max w.w_peak_queue_depth (depth + 1)
  | Trace.Reject { queue_depth; _ } ->
    w.w_peak_queue_depth <- max w.w_peak_queue_depth queue_depth
  | Trace.Admit { server; occupancy; _ } ->
    w.w_peak_occupancy <- max w.w_peak_occupancy occupancy;
    let rec bump = function
      | [] -> [ (server, occupancy) ]
      | (s, peak) :: rest when s = server -> (s, max peak occupancy) :: rest
      | (s, _) as hd :: rest when s < server -> hd :: bump rest
      | rest -> (server, occupancy) :: rest
    in
    w.w_server_peaks <- bump w.w_server_peaks
  | Trace.Bw_sample { bps } ->
    if ts >= s.s_bw_ts then begin
      w.w_bw_bps <- bps;
      s.s_bw_ts <- ts
    end
  | _ -> ());
  (* Span.run_end_s ends a run at the same close, so a series over a
     session trace covers exactly the run's wall clock. *)
  let close = Trace.close_s ~ts ev in
  if close > t.end_s then t.end_s <- close

(* Exemplar attachment: route a kept event's latency sample to the
   same per-kind window histogram [sink] charged it to, as an
   out-of-band annotation.  Kinds that carry no latency are ignored. *)
let add_exemplar t ~ts ev ~trace_id =
  let li = Trace.latency_slot ev in
  if li >= 0 then begin
    let index =
      if ts <= 0.0 then 0 else int_of_float (Float.floor (ts /. t.window_s))
    in
    let s = slot_at t index in
    Hist.note_exemplar s.s_harr.(li) ~trace_id (Trace.latency ev)
  end

let of_events ?window_s events =
  let t = create ?window_s () in
  Trace.replay (sink t) events;
  t

(* Dense, chronological: every window from 0 up to the later of the
   last touched window and the last covered instant, gaps filled with
   (cached) empty windows so rates read as zero rather than missing. *)
let windows t =
  let last_covered =
    if t.end_s <= 0.0 then 0
    else int_of_float (Float.ceil (t.end_s /. t.window_s)) - 1
  in
  let last = max 0 (max t.max_index last_covered) in
  List.init (last + 1) (fun i -> window_at t i)

let totals t = t.total

let kind_hist t name =
  Hist.merge
    (List.filter_map (fun w -> List.assoc_opt name w.w_hists) (windows t))
