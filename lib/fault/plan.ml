(* Deterministic fault plans.

   A plan is a pure description of everything that will go wrong
   during a simulated run: when the link is dark, when the usable
   bandwidth collapses, how lossy the link is per message, and when
   (if ever) the server dies.  The plan carries its own RNG seed so a
   lossy run is reproducible from the plan alone.

   Plans are parsed from a compact [key=value,...] syntax so they can
   travel on a command line:

     seed=42,outage=0.5:2.0,drop=0.05,corrupt=0.01,crash=3.5,collapse=1.0:0.02
*)

type outage = { out_from_s : float; out_until_s : float }
type collapse = { col_at_s : float; col_factor : float }

type t = {
  seed : int64;
  outages : outage list;
  drop_p : float;
  corrupt_p : float;
  crash_at_s : float option;
  collapse : collapse option;
}

let empty =
  {
    seed = 1L;
    outages = [];
    drop_p = 0.0;
    corrupt_p = 0.0;
    crash_at_s = None;
    collapse = None;
  }

let is_empty t =
  t.outages = [] && t.drop_p = 0.0 && t.corrupt_p = 0.0
  && t.crash_at_s = None && t.collapse = None

let with_seed t seed = { t with seed }

let grammar =
  "seed=N, outage=START:END (repeatable), drop=P, corrupt=P, crash=T, \
   collapse=T:FACTOR — comma-separated, times in simulated seconds, \
   probabilities in [0,1), factor in (0,1]"

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_float ~what s =
  match float_of_string_opt (String.trim s) with
  | Some v when Float.is_finite v -> Ok v
  | Some _ -> Error (Printf.sprintf "%s: not a finite number (%S)" what s)
  | None -> Error (Printf.sprintf "%s: not a number (%S)" what s)

let parse_time ~what s =
  let* v = parse_float ~what s in
  if v < 0.0 then Error (Printf.sprintf "%s: must be >= 0" what) else Ok v

let parse_prob ~what s =
  let* v = parse_float ~what s in
  if v < 0.0 || v >= 1.0 then
    Error (Printf.sprintf "%s: probability must be in [0,1)" what)
  else Ok v

let parse_pair ~what s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "%s: expected A:B, got %S" what s)
  | Some i ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let apply_field plan key value =
  match key with
  | "seed" -> (
    match Int64.of_string_opt (String.trim value) with
    | Some seed -> Ok { plan with seed }
    | None -> Error (Printf.sprintf "seed: not an integer (%S)" value))
  | "outage" ->
    let* a, b = parse_pair ~what:"outage" value in
    let* from_s = parse_time ~what:"outage start" a in
    let* until_s = parse_time ~what:"outage end" b in
    if until_s <= from_s then Error "outage: end must be after start"
    else
      Ok
        { plan with
          outages =
            plan.outages @ [ { out_from_s = from_s; out_until_s = until_s } ]
        }
  | "drop" ->
    let* p = parse_prob ~what:"drop" value in
    Ok { plan with drop_p = p }
  | "corrupt" ->
    let* p = parse_prob ~what:"corrupt" value in
    Ok { plan with corrupt_p = p }
  | "crash" ->
    let* at = parse_time ~what:"crash" value in
    Ok { plan with crash_at_s = Some at }
  | "collapse" ->
    let* a, b = parse_pair ~what:"collapse" value in
    let* at = parse_time ~what:"collapse time" a in
    let* factor = parse_float ~what:"collapse factor" b in
    if factor <= 0.0 || factor > 1.0 then
      Error "collapse: factor must be in (0,1]"
    else Ok { plan with collapse = Some { col_at_s = at; col_factor = factor } }
  | other -> Error (Printf.sprintf "unknown fault field %S" other)

let parse text =
  let fields =
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.fold_left
    (fun acc field ->
      let* plan = acc in
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" field)
      | Some i ->
        let key = String.trim (String.sub field 0 i) in
        let value = String.sub field (i + 1) (String.length field - i - 1) in
        apply_field plan key value)
    (Ok empty) fields

let to_string t =
  let buf = Buffer.create 64 in
  let add fmt = Printf.ksprintf (fun s ->
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf s) fmt
  in
  if t.seed <> empty.seed then add "seed=%Ld" t.seed;
  List.iter
    (fun o -> add "outage=%g:%g" o.out_from_s o.out_until_s)
    t.outages;
  if t.drop_p > 0.0 then add "drop=%g" t.drop_p;
  if t.corrupt_p > 0.0 then add "corrupt=%g" t.corrupt_p;
  (match t.crash_at_s with Some at -> add "crash=%g" at | None -> ());
  (match t.collapse with
  | Some c -> add "collapse=%g:%g" c.col_at_s c.col_factor
  | None -> ());
  Buffer.contents buf

let pp ppf t =
  if is_empty t then Fmt.string ppf "(no faults)"
  else Fmt.string ppf (to_string t)
