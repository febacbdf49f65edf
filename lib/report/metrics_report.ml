(* Render a run's event-derived metrics (the aggregating trace sink)
   as a plain-text table — the CLI's --metrics view and the bench
   harness's per-run summary. *)

module Trace = No_trace.Trace

let table ?(title = "Run metrics (event-stream derived)")
    (m : Trace.Metrics.t) : Table.t =
  let t = Table.create ~title [ "metric"; "value" ] in
  List.iter (fun (k, v) -> Table.add_row t [ k; v ]) (Trace.Metrics.to_rows m);
  List.iter
    (fun (state, seconds) ->
      Table.add_row t
        [ "power: " ^ state ^ " (s)"; Printf.sprintf "%.4f" seconds ])
    (Trace.Metrics.residency m);
  t
