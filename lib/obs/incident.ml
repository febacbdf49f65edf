(* SLO incident timeline: the Slo grammar evaluated continuously.

   [Slo.evaluate] answers "did the run pass, in total"; an operator
   also needs "when did it degrade, and did it recover".  This engine
   re-evaluates each objective per Series window and folds maximal
   consecutive runs of violating windows into incidents: fired at the
   first violating window's start, resolved at the end of the last one
   — or still firing if the violation reaches the end of the series.

   The per-window verdicts are [Slo.per_window]'s: the clause measured
   over one window by the function [Slo.evaluate] measures the run
   with, or a burn clause's fast/slow pair at that window, so an
   incident is exactly "this clause, scoped to a window".  Empty
   windows never violate — no attempts means no evidence, not an
   outage.

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
    let signal = Slo.per_window o series in
    let flags = List.map (fun (_, holds) -> not holds) signal in
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
      (fun i (value, holds) ->
        match (!run, holds) with
        | None, true -> ()
        | None, false -> run := Some (i, 1, value)
        | Some (first, count, peak), false ->
          run := Some (first, count + 1, worse o peak value)
        | Some state, true ->
          close state (i - 1);
          run := None)
      signal;
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

(* One JSON object per incident, floats through [Trace.json_float] —
   same stability contract as the raw-trace files. *)
let to_jsonl incidents =
  let line i =
    Printf.sprintf
      "{\"label\":%s,\"start_s\":%s,\"end_s\":%s,\"windows\":%d,\
       \"peak\":%s,\"exemplars\":[%s]}"
      (Trace.json_string i.i_label)
      (Trace.json_float i.i_start_s)
      (match i.i_end_s with Some e -> Trace.json_float e | None -> "null")
      i.i_windows
      (Trace.json_float i.i_peak)
      (String.concat "," (List.map Trace.json_string i.i_exemplars))
  in
  String.concat "" (List.map (fun i -> line i ^ "\n") incidents)

let save path incidents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl incidents))
