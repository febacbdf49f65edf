(* A small declarative SLO grammar evaluated over a windowed Series.

   A spec is a comma-separated list of objectives:

     avail>=0.99                   offload availability over the run:
                                   1 - (fallbacks + rejects) /
                                       (offload attempts + rejects)
     p99(page-fault)<=50ms         latency quantile of a Series
                                   latency kind (merged windows);
                                   units: s (default), ms, us
     rate(retries)<=0.5            event rate per simulated second
                                   over the whole run
     burn(0.99)<=14                multi-window error-budget burn rate
     burn(0.99,fast=6,slow=36)<=14 against availability target 0.99:
                                   fails only when BOTH the fast
                                   window (last 6 intervals) and the
                                   slow window (last 36) burn faster
                                   than the limit — the classic
                                   fast/slow alerting pair

   Kind and counter names are case/punctuation-insensitive
   ("PageFault" == "page-fault").  Evaluation is a pure function of
   the series, so seeded reruns produce byte-identical verdicts. *)

module Trace = No_trace.Trace

type objective =
  | Avail of { min : float }
  | Quantile of { q : float; kind : string; limit_s : float }
  | Rate of { counter : string; max_per_s : float }
  | Burn of { target : float; max_rate : float; fast : int; slow : int }

type verdict = {
  v_label : string;       (* the clause, normalized *)
  v_value : float;        (* what was measured *)
  v_pass : bool;
}

let grammar =
  "avail>=F | pQ(KIND)<=DUR | rate(COUNTER)<=F | \
   burn(TARGET[,fast=N,slow=M])<=F, comma-separated; DUR takes s/ms/us; \
   KIND: offload-span page-fault flush remote-io fnptr-translate \
   rpc-timeout retry-backoff replay queue-wait migrate-transfer; \
   COUNTER: offloads refusals page-faults retries timeouts fallbacks \
   rollbacks replays queued admits rejects faults-injected checkpoints \
   migrations migrations-done"

let default_spec = "avail>=0.99,p99(page-fault)<=50ms,burn(0.99)<=14"

(* The fleet bench saturates on purpose — 10^3 clients against 4x2
   slots — so a serving availability target like 0.99 can never pass
   there and a perpetual FAIL guards nothing.  This spec is a *floor
   under deliberate saturation*: baseline availability is
   ~0.018-0.024 across policies, so 0.015 passes at baseline and flips
   to FAIL if routing or admission regresses (and the page-fault tail
   bound still applies). *)
let fleet_default_spec = "avail>=0.015,p99(page-fault)<=50ms"

(* {1 Parsing} *)

(* Case/punctuation-insensitive key: letters and digits only. *)
let normalize s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' -> Buffer.add_char b c
      | 'A' .. 'Z' -> Buffer.add_char b (Char.lowercase_ascii c)
      | _ -> ())
    s;
  Buffer.contents b

let kind_of_string s =
  let key = normalize s in
  List.find_opt
    (fun name -> String.equal (normalize name) key)
    Trace.latency_names

let counters : (string * (Trace.Metrics.t -> int)) list =
  [
    ("offloads", fun m -> m.Trace.Metrics.offloads);
    ("refusals", fun m -> m.Trace.Metrics.refusals);
    ("page-faults", fun m -> m.Trace.Metrics.fault_count);
    ("retries", fun m -> m.Trace.Metrics.retries);
    ("timeouts", fun m -> m.Trace.Metrics.rpc_timeouts);
    ("fallbacks", fun m -> m.Trace.Metrics.fallbacks);
    ("rollbacks", fun m -> m.Trace.Metrics.rollbacks);
    ("replays", fun m -> m.Trace.Metrics.replays);
    ("queued", fun m -> m.Trace.Metrics.queued);
    ("admits", fun m -> m.Trace.Metrics.admits);
    ("rejects", fun m -> m.Trace.Metrics.rejects);
    ("faults-injected", fun m -> m.Trace.Metrics.faults_injected);
    ("checkpoints", fun m -> m.Trace.Metrics.checkpoints);
    ("migrations", fun m -> m.Trace.Metrics.migrations);
    ("migrations-done", fun m -> m.Trace.Metrics.migrations_done);
  ]

let counter_of_string s =
  let key = normalize s in
  List.find_opt (fun (name, _) -> String.equal (normalize name) key) counters
  |> Option.map fst

let strip s = String.trim s

let float_of s =
  match float_of_string_opt (strip s) with
  | Some f when Float.is_finite f -> Ok f
  | _ -> Error (Printf.sprintf "bad number %S" (strip s))

(* "50ms" / "200us" / "1.5s" / bare seconds. *)
let duration_of s =
  let s = strip s in
  let split suffix =
    let n = String.length s and k = String.length suffix in
    if n > k && String.equal (String.sub s (n - k) k) suffix then
      Some (String.sub s 0 (n - k))
    else None
  in
  match split "ms" with
  | Some num -> Result.map (fun f -> f *. 1e-3) (float_of num)
  | None -> (
    match split "us" with
    | Some num -> Result.map (fun f -> f *. 1e-6) (float_of num)
    | None -> (
      match split "s" with
      | Some num -> float_of num
      | None -> float_of s))

(* Split "head(args)<=rhs" into (head, args, rhs). *)
let call_clause clause =
  match String.index_opt clause '(' with
  | None -> None
  | Some lp -> (
    match String.index_opt clause ')' with
    | Some rp when rp > lp -> (
      let head = String.sub clause 0 lp in
      let args = String.sub clause (lp + 1) (rp - lp - 1) in
      let rest = String.sub clause (rp + 1) (String.length clause - rp - 1) in
      match
        if String.length rest >= 2 && String.equal (String.sub rest 0 2) "<="
        then Some (String.sub rest 2 (String.length rest - 2))
        else None
      with
      | Some rhs -> Some (strip head, strip args, strip rhs)
      | None -> None)
    | _ -> None)

let ( let* ) = Result.bind

(* A limit no measurement can be below. *)
let non_negative what = function
  | Ok f when f < 0.0 -> Error (Printf.sprintf "%s must be >= 0" what)
  | r -> r

let parse_clause clause =
  let clause = strip clause in
  let err msg = Error (Printf.sprintf "%S: %s" clause msg) in
  match call_clause clause with
  | Some (head, args, rhs) ->
    if String.length head > 1 && head.[0] = 'p' then
      let* q =
        match
          float_of_string_opt (String.sub head 1 (String.length head - 1))
        with
        | Some q when q > 0.0 && q < 100.0 -> Ok (q /. 100.0)
        | _ -> err "quantile must be p<Q> with 0 < Q < 100"
      in
      let* kind =
        match kind_of_string args with
        | Some kind -> Ok kind
        | None -> err (Printf.sprintf "unknown latency kind %S" args)
      in
      let* limit_s =
        Result.map_error (fun m -> Printf.sprintf "%S: %s" clause m)
          (non_negative "duration" (duration_of rhs))
      in
      Ok (Quantile { q; kind; limit_s })
    else if String.equal head "rate" then
      let* counter =
        match counter_of_string args with
        | Some c -> Ok c
        | None -> err (Printf.sprintf "unknown counter %S" args)
      in
      let* max_per_s =
        Result.map_error (fun m -> Printf.sprintf "%S: %s" clause m)
          (non_negative "rate limit" (float_of rhs))
      in
      Ok (Rate { counter; max_per_s })
    else if String.equal head "burn" then (
      match List.map strip (String.split_on_char ',' args) with
      | target :: opts ->
        let* target =
          match float_of target with
          | Ok t when t > 0.0 && t < 1.0 -> Ok t
          | Ok _ -> err "burn target must be in (0,1)"
          | Error m -> err m
        in
        let* fast, slow =
          List.fold_left
            (fun acc opt ->
              let* fast, slow = acc in
              match String.split_on_char '=' opt with
              | [ "fast"; n ] -> (
                match int_of_string_opt n with
                | Some n when n > 0 -> Ok (n, slow)
                | _ -> err "fast= expects a positive integer")
              | [ "slow"; n ] -> (
                match int_of_string_opt n with
                | Some n when n > 0 -> Ok (fast, n)
                | _ -> err "slow= expects a positive integer")
              | _ -> err (Printf.sprintf "unknown burn option %S" opt))
            (Ok (6, 36)) opts
        in
        let* max_rate =
          Result.map_error (fun m -> Printf.sprintf "%S: %s" clause m)
            (non_negative "burn limit" (float_of rhs))
        in
        Ok (Burn { target; max_rate; fast; slow })
      | [] -> err "burn needs a target, e.g. burn(0.99)<=14")
    else err "expected pQ(...), rate(...) or burn(...)"
  | None -> (
    (* avail>=F is the only non-call clause. *)
    match String.index_opt clause '>' with
    | Some i
      when i + 1 < String.length clause
           && clause.[i + 1] = '='
           && String.equal (normalize (String.sub clause 0 i)) "avail" ->
      let rhs = String.sub clause (i + 2) (String.length clause - i - 2) in
      let* min =
        match float_of rhs with
        | Ok f when f >= 0.0 && f <= 1.0 -> Ok f
        | Ok _ -> err "availability must be in [0,1]"
        | Error m -> err m
      in
      Ok (Avail { min })
    | _ -> err "expected avail>=F, pQ(KIND)<=DUR, rate(..)<=F or burn(..)<=F")

let parse spec =
  let clauses =
    List.filter
      (fun c -> strip c <> "")
      (String.split_on_char ',' spec)
  in
  (* burn(0.99,fast=6,slow=36) contains commas: re-join split pieces
     whose parens are unbalanced. *)
  let rec rejoin acc = function
    | [] -> List.rev acc
    | piece :: rest ->
      let unbalanced s =
        let opens = String.fold_left (fun n c -> if c = '(' then n + 1 else n) 0 s in
        let closes = String.fold_left (fun n c -> if c = ')' then n + 1 else n) 0 s in
        opens > closes
      in
      if unbalanced piece then
        match rest with
        | next :: rest -> rejoin acc ((piece ^ "," ^ next) :: rest)
        | [] -> List.rev ((piece ^ " (unbalanced)") :: acc)
      else rejoin (piece :: acc) rest
  in
  let clauses = rejoin [] clauses in
  if clauses = [] then Error "empty SLO spec"
  else
    List.fold_left
      (fun acc clause ->
        let* objectives = acc in
        let* o = parse_clause clause in
        Ok (o :: objectives))
      (Ok []) clauses
    |> Result.map List.rev

(* {1 Evaluation} *)

(* The offload service's error ratio in one metrics aggregate: of the
   attempts that reached a decision to use the server (begun offloads
   plus admission rejects), the ones that failed (local fallbacks) or
   never ran there (rejects); 0 when there were no attempts. *)
let error_ratio (m : Trace.Metrics.t) =
  let attempts = m.Trace.Metrics.offloads + m.Trace.Metrics.rejects in
  if attempts = 0 then 0.0
  else
    let failures = m.Trace.Metrics.fallbacks + m.Trace.Metrics.rejects in
    float_of_int failures /. float_of_int attempts

let avail_of m = 1.0 -. error_ratio m

(* Error-budget burn rate: the error ratio over the budget
   (1 - target). *)
let burn_rate ~target m = error_ratio m /. (1.0 -. target)

(* A sampler keeps whole tasks, and a task's latency is its offload
   span: its SLO keep-leg threshold is the tightest offload-span
   quantile limit in the spec. *)
let span_limit_s objectives =
  List.fold_left
    (fun acc o ->
      match o with
      | Quantile { kind = "offload-span"; limit_s; _ } ->
        Float.min acc limit_s
      | _ -> acc)
    infinity objectives

let label_of = function
  | Avail { min } -> Printf.sprintf "avail>=%g" min
  | Quantile { q; kind; limit_s } ->
    Printf.sprintf "p%g(%s)<=%gs" (100.0 *. q) kind limit_s
  | Rate { counter; max_per_s } ->
    Printf.sprintf "rate(%s)<=%g/s" counter max_per_s
  | Burn { target; max_rate; fast; slow } ->
    Printf.sprintf "burn(%g,fast=%d,slow=%d)<=%g" target fast slow max_rate

(* What a clause is measured over: the whole run (its totals, merged
   histograms and duration) or one window (its metrics, histograms and
   width). *)
type scope = {
  metrics : Trace.Metrics.t;
  hist : string -> Hist.t option;
  duration_s : float;
}

let run_scope series =
  {
    metrics = Series.totals series;
    hist = (fun kind -> Some (Series.kind_hist series kind));
    duration_s = Series.duration_s series;
  }

let window_scope series (w : Series.window) =
  {
    metrics = w.Series.w_metrics;
    hist = (fun kind -> List.assoc_opt kind w.Series.w_hists);
    duration_s = Series.window_s series;
  }

(* A clause's measured value over one scope and whether it holds
   there.  An empty scope never fails: no attempts read as full
   availability, no samples as a zero quantile. *)
let measure scope o =
  match o with
  | Avail { min } ->
    let v = avail_of scope.metrics in
    (v, v >= min)
  | Quantile { q; kind; limit_s } -> (
    match scope.hist kind with
    | Some h when Hist.count h > 0 ->
      let v = Hist.quantile h q in
      (v, v <= limit_s)
    | _ -> (0.0, true))
  | Rate { counter; max_per_s } ->
    let count = (List.assoc counter counters) scope.metrics in
    let v =
      if scope.duration_s > 0.0 then float_of_int count /. scope.duration_s
      else 0.0
    in
    (v, v <= max_per_s)
  | Burn _ -> invalid_arg "Slo.measure: a burn clause spans windows"

(* The burn signal: at each window, the fast and slow trailing means of
   the per-window burn rates, summed oldest first; the clause fails
   there only when both exceed the limit. *)
let burn_signal ~target ~max_rate ~fast ~slow windows =
  let burns =
    Array.of_list
      (List.map
         (fun (w : Series.window) -> burn_rate ~target w.Series.w_metrics)
         windows)
  in
  let trailing_mean upto n =
    let lo = Stdlib.max 0 (upto + 1 - n) in
    let sum = ref 0.0 in
    for i = lo to upto do
      sum := !sum +. burns.(i)
    done;
    !sum /. float_of_int (upto + 1 - lo)
  in
  List.init (Array.length burns) (fun i ->
      let f = trailing_mean i fast and s = trailing_mean i slow in
      (Float.max f s, not (f > max_rate && s > max_rate)))

let per_window o series =
  let windows = Series.windows series in
  match o with
  | Burn { target; max_rate; fast; slow } ->
    burn_signal ~target ~max_rate ~fast ~slow windows
  | Avail _ | Quantile _ | Rate _ ->
    List.map (fun w -> measure (window_scope series w) o) windows

(* The run's verdicts.  A burn clause's is its signal at the last
   window (no windows, no burn). *)
let evaluate objectives series =
  let run = run_scope series in
  List.map
    (fun o ->
      let value, pass =
        match o with
        | Burn _ ->
          List.fold_left
            (fun _ last -> last)
            (0.0, true) (per_window o series)
        | Avail _ | Quantile _ | Rate _ -> measure run o
      in
      { v_label = label_of o; v_value = value; v_pass = pass })
    objectives

let pass verdicts = List.for_all (fun v -> v.v_pass) verdicts

let render verdicts =
  String.concat "; "
    (List.map
       (fun v ->
         Printf.sprintf "%s: %s (%.4g)" v.v_label
           (if v.v_pass then "pass" else "FAIL")
           v.v_value)
       verdicts)
