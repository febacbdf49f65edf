(** SLO incident timeline: the {!Slo} grammar evaluated continuously
    over {!Series} windows.

    Where {!Slo.evaluate} gives one end-of-run verdict per clause,
    {!detect} reads each clause's verdict per window
    ({!Slo.per_window}) and folds maximal
    consecutive runs of violating windows into incidents — fired at
    the first violating window, resolved at the end of the last, or
    still firing if the violation reaches the end of the series.  Burn
    clauses apply their fast/slow trailing-window pair at every
    window; empty windows never violate (no attempts is no evidence).

    Each incident carries up to four exemplar trace ids harvested from
    the violating windows' latency histograms (attached there by the
    trace sampler), so a timeline entry links back to concrete kept
    traces.  Detection, ordering and both renderings are pure
    functions of the series: seeded reruns are byte-identical. *)

type incident = {
  i_label : string;  (** the violated clause ({!Slo.label_of} form) *)
  i_start_s : float;  (** start of the first violating window *)
  i_end_s : float option;
      (** end of the last violating window; [None] = still firing at
          the end of the series *)
  i_windows : int;  (** violating windows in the run *)
  i_peak : float;
      (** worst measured value inside the incident: the lowest for an
          [avail>=] clause, the highest for every other *)
  i_exemplars : string list;
      (** at most 4 kept-trace ids, chronological first-seen order *)
}

val detect : Slo.objective list -> Series.t -> incident list
(** Chronological by firing instant; spec order breaks ties. *)

val render : incident list -> string
(** Deterministic text timeline; ["no incidents"] when empty. *)

val to_jsonl : incident list -> string
(** One JSON object per incident per line (floats through
    {!No_trace.Trace.json_float}; [end_s] is [null] while still
    firing). *)

val save : string -> incident list -> unit
(** Write {!to_jsonl} to a file. *)
