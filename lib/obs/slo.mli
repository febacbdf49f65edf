(** Declarative service-level objectives evaluated over a windowed
    {!Series}.

    Spec grammar (comma-separated clauses; see {!grammar}):
    - [avail>=0.99] — offload availability over the whole run,
      [1 - (fallbacks + rejects) / (offload attempts + rejects)];
    - [p99(page-fault)<=50ms] — a latency-kind quantile over the
      merged windowed histograms; duration units s (default), ms, us;
    - [rate(retries)<=0.5] — events per simulated second;
    - [burn(0.99)<=14] / [burn(0.99,fast=6,slow=36)<=14] — windowed
      error-budget burn rate against availability target 0.99, failing
      only when both the fast (default last 6 windows) and slow
      (default last 36) trailing means exceed the limit.

    Kind/counter names are case- and punctuation-insensitive
    ("PageFault" matches "page-fault").  Evaluation is a pure function
    of the series: seeded reruns give byte-identical verdicts. *)

type objective =
  | Avail of { min : float }
  | Quantile of { q : float; kind : string; limit_s : float }
  | Rate of { counter : string; max_per_s : float }
  | Burn of { target : float; max_rate : float; fast : int; slow : int }

type verdict = {
  v_label : string;  (** the clause, normalized *)
  v_value : float;   (** the measured value *)
  v_pass : bool;
}

val grammar : string
(** One-line grammar summary for error messages and --help. *)

val default_spec : string
(** ["avail>=0.99,p99(page-fault)<=50ms,burn(0.99)<=14"]. *)

val fleet_default_spec : string
(** ["avail>=0.015,p99(page-fault)<=50ms"] — an availability *floor*
    for the deliberately saturated fleet bench, where the serving
    target of {!default_spec} can never pass and a perpetual FAIL
    would guard nothing.  Passes at baseline scale; flips to FAIL if
    routing/admission regresses. *)

val parse : string -> (objective list, string) result

val label_of : objective -> string
(** The clause in normalized form, e.g. ["p99(page-fault)<=0.05s"] —
    the label incidents and verdicts share. *)

val span_limit_s : objective list -> float
(** The tightest [offload-span] quantile limit in the spec, or
    [infinity] when there is none: a trace sampler's SLO keep-leg
    threshold, since it keeps whole tasks and a task's latency is its
    offload span. *)

val per_window : objective -> Series.t -> (float * bool) list
(** Each window's measured value of the clause and whether the clause
    holds there, chronologically: a [burn] clause's fast/slow trailing
    pair ending at that window; any other clause measured over that
    window alone (its metrics, histograms and width), as {!evaluate}
    measures it over the whole run.  Empty windows never fail. *)

val evaluate : objective list -> Series.t -> verdict list
(** Verdicts in spec order.  A [burn] clause's is its {!per_window}
    value at the last window; every other clause is measured over the
    run: its totals, merged histograms and duration. *)

val pass : verdict list -> bool

val render : verdict list -> string
(** ["avail>=0.99: pass (1); p99(page-fault)<=0.05s: FAIL (0.072)"]. *)
