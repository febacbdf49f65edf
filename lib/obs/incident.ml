(* SLO incident timeline: the Slo grammar evaluated continuously.

   [Slo.evaluate] answers "did the run pass, in total"; an operator
   also needs "when did it degrade, and did it recover".  This engine
   re-evaluates each objective per Series window and folds maximal
   consecutive runs of violating windows into incidents: fired at the
   first violating window's start, resolved at the end of the last one
   — or still firing if the violation reaches the end of the series.

   The per-window violation tests deliberately reuse the Slo module's
   own definitions (avail_of, the counter table, burn_rate and its
   fast/slow trailing means), so an incident is exactly "this clause,
   scoped to a window".  Empty windows never violate — no attempts
   means no evidence, not an outage.

   Each incident carries up to four exemplar trace ids harvested from
   the violating windows' latency histograms (attached there by the
   trace sampler), linking the timeline entry back to concrete kept
   traces.  Everything — detection, ordering, both renderings — is a
   pure function of the series, so seeded reruns are byte-identical. *)

module Trace = No_trace.Trace

type incident = {
  i_label : string;            (* the violated clause, Slo.label_of form *)
  i_start_s : float;           (* start of the first violating window *)
  i_end_s : float option;      (* end of the last one; None = still firing *)
  i_windows : int;
  i_peak : float;              (* worst measured value inside the incident *)
  i_exemplars : string list;   (* <= 4 kept-trace ids, first seen first *)
}

let max_exemplars = 4

(* Which latency-kind histograms to harvest exemplars from: a
   quantile clause names its kind; availability/burn/rate incidents
   point at the offload spans that lived through the degradation. *)
let exemplar_kind = function
  | Slo.Quantile { kind; _ } -> kind
  | Slo.Avail _ | Slo.Rate _ | Slo.Burn _ -> "offload-span"

(* Per-window (violates, measured value) signal for one objective.
   Windows arrive dense and chronological; burn needs the trailing
   prefix, so the whole vector is computed in one left-to-right pass. *)
let signal objective (windows : Series.window list) window_s =
  match objective with
  | Slo.Avail { min } ->
    List.map
      (fun (w : Series.window) ->
        let m = w.Series.w_metrics in
        let attempts = m.Trace.Metrics.offloads + m.Trace.Metrics.rejects in
        let v = Slo.avail_of m in
        (attempts > 0 && v < min, v))
      windows
  | Slo.Quantile { q; kind; limit_s } ->
    List.map
      (fun (w : Series.window) ->
        match List.assoc_opt kind w.Series.w_hists with
        | Some h when Hist.count h > 0 ->
          let v = Hist.quantile h q in
          (v > limit_s, v)
        | _ -> (false, 0.0))
      windows
  | Slo.Rate { counter; max_per_s } ->
    List.map
      (fun (w : Series.window) ->
        let v =
          float_of_int (Slo.counter_value counter w.Series.w_metrics)
          /. window_s
        in
        (v > max_per_s, v))
      windows
  | Slo.Burn { target; max_rate; fast; slow } ->
    (* Trailing fast/slow means over the burn-rate vector, alerting
       only when both exceed the limit — the same pair Slo.evaluate
       applies once at end of run, here applied at every window. *)
    let burns =
      List.map
        (fun (w : Series.window) -> Slo.burn_rate ~target w.Series.w_metrics)
        windows
      |> Array.of_list
    in
    let trailing_mean upto n =
      let lo = Stdlib.max 0 (upto + 1 - n) in
      let sum = ref 0.0 in
      for i = lo to upto do
        sum := !sum +. burns.(i)
      done;
      !sum /. float_of_int (upto + 1 - lo)
    in
    List.mapi
      (fun i _ ->
        let f = trailing_mean i fast and s = trailing_mean i slow in
        (f > max_rate && s > max_rate, Float.max f s))
      windows

(* The worse of two measured values: the lower for an availability
   floor, the higher for every other clause. *)
let worse = function
  | Slo.Avail _ -> Float.min
  | Slo.Quantile _ | Slo.Rate _ | Slo.Burn _ -> Float.max

(* First [max_exemplars] distinct trace ids from the violating
   windows' [kind] histograms, chronological. *)
let harvest_exemplars kind (windows : Series.window list) flags =
  let ids = ref [] and n = ref 0 in
  List.iter2
    (fun (w : Series.window) violates ->
      if violates && !n < max_exemplars then
        match List.assoc_opt kind w.Series.w_hists with
        | None -> ()
        | Some h ->
          List.iter
            (fun (id, _) ->
              if !n < max_exemplars && not (List.mem id !ids) then begin
                ids := id :: !ids;
                incr n
              end)
            (Hist.exemplars h))
    windows flags;
  List.rev !ids

let detect objectives series =
  let windows = Series.windows series in
  let window_s = Series.window_s series in
  let total = List.length windows in
  let per_objective o =
    let label = Slo.label_of o in
    let sig_ = signal o windows window_s in
    let flags = List.map fst sig_ in
    let exemplars_of lo hi =
      let scoped = List.mapi (fun i f -> f && i >= lo && i <= hi) flags in
      harvest_exemplars (exemplar_kind o) windows scoped
    in
    (* Fold maximal violating runs.  [run] is (first index, count,
       peak) of the open run. *)
    let incidents = ref [] in
    let close (first, count, peak) last =
      let still_firing = last = total - 1 in
      incidents :=
        {
          i_label = label;
          i_start_s = float_of_int first *. window_s;
          i_end_s =
            (if still_firing then None
             else Some (float_of_int (last + 1) *. window_s));
          i_windows = count;
          i_peak = peak;
          i_exemplars = exemplars_of first last;
        }
        :: !incidents
    in
    let run = ref None in
    List.iteri
      (fun i (violates, value) ->
        match (!run, violates) with
        | None, false -> ()
        | None, true -> run := Some (i, 1, value)
        | Some (first, count, peak), true ->
          run := Some (first, count + 1, worse o peak value)
        | Some state, false ->
          close state (i - 1);
          run := None)
      sig_;
    (match !run with Some state -> close state (total - 1) | None -> ());
    List.rev !incidents
  in
  (* Spec order per objective, then chronological overall; the stable
     sort keeps spec order among incidents firing at the same instant. *)
  List.concat_map per_objective objectives
  |> List.stable_sort (fun a b -> Float.compare a.i_start_s b.i_start_s)

let render incidents =
  match incidents with
  | [] -> "no incidents"
  | _ ->
    String.concat "\n"
      (List.map
         (fun i ->
           Printf.sprintf "incident %s: fired %.3fs %s (%d window%s, peak %.4g)%s"
             i.i_label i.i_start_s
             (match i.i_end_s with
             | Some e -> Printf.sprintf "resolved %.3fs" e
             | None -> "still-firing")
             i.i_windows
             (if i.i_windows = 1 then "" else "s")
             i.i_peak
             (match i.i_exemplars with
             | [] -> ""
             | ids -> " exemplars: " ^ String.concat "," ids))
         incidents)

(* One JSON object per incident, %.9g floats — same stability contract
   as the raw-trace files. *)
let to_jsonl incidents =
  let line i =
    Printf.sprintf
      "{\"label\":%s,\"start_s\":%.9g,\"end_s\":%s,\"windows\":%d,\
       \"peak\":%.9g,\"exemplars\":[%s]}"
      (Trace.json_string i.i_label) i.i_start_s
      (match i.i_end_s with
      | Some e -> Printf.sprintf "%.9g" e
      | None -> "null")
      i.i_windows i.i_peak
      (String.concat "," (List.map Trace.json_string i.i_exemplars))
  in
  String.concat "" (List.map (fun i -> line i ^ "\n") incidents)

let save path incidents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl incidents))
