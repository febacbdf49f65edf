(* Trace diffing: why is run B slower than run A?

   Both traces are folded into span trees (Span.of_events), the trees
   are aligned by node *path* (names joined root-to-leaf, ";"
   separated — the collapsed-stack identity, unique because Span
   merges same-named siblings), and the wall-clock delta is attributed
   to the aligned nodes: per path, the change in inclusive time, self
   time and merge count.  A node present in only one trace still
   aligns (against zero), so new failure subtrees — e.g. an
   "offload:<t> [failed]" node full of rpc-timeout/backoff children —
   show up as pure regressions.

   A second table attributes the same delta by event *kind* (flush,
   page-fault, rpc-timeout, ...), summing each kind's charged duration
   per trace — the cross-cutting view when a cost is smeared over many
   nodes.

   Everything is a pure function of the two event lists: diffing a
   trace against itself yields all-zero rows, and re-rendering is
   byte-identical (both locked by tests). *)

module Trace = No_trace.Trace

type row = {
  d_path : string;
  d_count_a : int;
  d_count_b : int;
  d_total_a_s : float;
  d_total_b_s : float;
  d_self_a_s : float;
  d_self_b_s : float;
}

type kind_row = {
  k_kind : string;
  k_count_a : int;
  k_count_b : int;
  k_time_a_s : float;
  k_time_b_s : float;
}

type report = {
  r_wall_a_s : float;
  r_wall_b_s : float;
  r_rows : row list;       (* descending |self delta|, ties by path *)
  r_kinds : kind_row list; (* descending |time delta|, ties by kind *)
}

(* A to B, per quantity; equal infinities differ by 0 (Trace.delta). *)
let wall_delta_s r = Trace.delta r.r_wall_a_s r.r_wall_b_s
let total_delta row = Trace.delta row.d_total_a_s row.d_total_b_s
let self_delta row = Trace.delta row.d_self_a_s row.d_self_b_s
let time_delta k = Trace.delta k.k_time_a_s k.k_time_b_s

(* {1 Node alignment} *)

(* path -> (count, total, self), flattened preorder. *)
let flatten (root : Span.node) : (string, int * float * float) Hashtbl.t =
  let table = Hashtbl.create 64 in
  let rec go prefix (n : Span.node) =
    let path = if prefix = "" then n.Span.name else prefix ^ ";" ^ n.Span.name in
    (* Paths are unique (Span merges same-named siblings), so replace
       never loses a node. *)
    Hashtbl.replace table path (n.Span.count, n.Span.total_s, n.Span.self_s);
    List.iter (go path) n.Span.children
  in
  go "" root;
  table

let align (a : Span.node) (b : Span.node) : row list =
  let ta = flatten a and tb = flatten b in
  let paths = Hashtbl.create 64 in
  Hashtbl.iter (fun p _ -> Hashtbl.replace paths p ()) ta;
  Hashtbl.iter (fun p _ -> Hashtbl.replace paths p ()) tb;
  let lookup t p =
    Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt t p)
  in
  Hashtbl.fold
    (fun path () acc ->
      let ca, ta_s, sa_s = lookup ta path in
      let cb, tb_s, sb_s = lookup tb path in
      { d_path = path; d_count_a = ca; d_count_b = cb;
        d_total_a_s = ta_s; d_total_b_s = tb_s;
        d_self_a_s = sa_s; d_self_b_s = sb_s }
      :: acc)
    paths []

(* {1 Kind attribution} *)

(* Coarse event kind and its charged duration ([Trace.latency]);
   power segments are the timeline itself, not a cost, so they are
   left out. *)
let kind_of_event (ev : Trace.event) : (string * float) option =
  let charged kind = Some (kind, Trace.latency ev)
  and marker kind = Some (kind, 0.0) in
  match ev with
  | Trace.Flush { direction; _ } ->
    charged ("flush:" ^ Trace.direction_to_string direction)
  | Trace.Page_fault _ -> charged "page-fault"
  | Trace.Prefetch _ -> marker "prefetch"
  | Trace.Fnptr_translate _ -> charged "fnptr-translate"
  | Trace.Remote_io _ -> charged "remote-io"
  | Trace.Offload_begin _ -> None
  | Trace.Offload_end _ -> charged "offload-span"
  | Trace.Refusal _ -> marker "refusal"
  | Trace.Power_state _ -> None
  | Trace.Estimate _ -> marker "estimate"
  | Trace.Module_load _ -> marker "module-load"
  | Trace.Fault_injected _ -> marker "fault-injected"
  | Trace.Rpc_timeout _ -> charged "rpc-timeout"
  | Trace.Retry _ -> charged "retry"
  | Trace.Fallback_local _ -> marker "fallback-local"
  | Trace.Rollback _ -> marker "rollback"
  | Trace.Replay _ -> charged "local-replay"
  | Trace.Queue _ -> charged "queue-wait"
  | Trace.Admit _ -> marker "admit"
  | Trace.Reject _ -> marker "reject"
  | Trace.Checkpoint _ -> marker "checkpoint"
  | Trace.Migrate_start _ -> charged "migrate-transfer"
  | Trace.Migrate_done _ -> marker "migrate-done"
  | Trace.Bw_sample _ -> None

let kind_totals events : (string, int * float) Hashtbl.t =
  let table = Hashtbl.create 32 in
  List.iter
    (fun (_ts, ev) ->
      match kind_of_event ev with
      | None -> ()
      | Some (kind, dur) ->
        let count, time =
          Option.value ~default:(0, 0.0) (Hashtbl.find_opt table kind)
        in
        Hashtbl.replace table kind (count + 1, time +. dur))
    events;
  table

let align_kinds ea eb : kind_row list =
  let ta = kind_totals ea and tb = kind_totals eb in
  let kinds = Hashtbl.create 32 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace kinds k ()) ta;
  Hashtbl.iter (fun k _ -> Hashtbl.replace kinds k ()) tb;
  let lookup t k = Option.value ~default:(0, 0.0) (Hashtbl.find_opt t k) in
  Hashtbl.fold
    (fun kind () acc ->
      let ca, tma = lookup ta kind in
      let cb, tmb = lookup tb kind in
      { k_kind = kind; k_count_a = ca; k_count_b = cb;
        k_time_a_s = tma; k_time_b_s = tmb }
      :: acc)
    kinds []

(* {1 The report} *)

let by_magnitude delta name a b =
  match Float.compare (Float.abs (delta b)) (Float.abs (delta a)) with
  | 0 -> String.compare (name a) (name b)
  | c -> c

let compare_events ea eb : report =
  let ra = Span.of_events ea and rb = Span.of_events eb in
  let rows =
    List.sort
      (by_magnitude self_delta (fun r -> r.d_path))
      (align ra rb)
  in
  let kinds =
    List.sort
      (by_magnitude time_delta (fun k -> k.k_kind))
      (align_kinds ea eb)
  in
  { r_wall_a_s = ra.Span.total_s; r_wall_b_s = rb.Span.total_s;
    r_rows = rows; r_kinds = kinds }

let is_zero r =
  Float.equal r.r_wall_a_s r.r_wall_b_s
  && List.for_all
       (fun row ->
         row.d_count_a = row.d_count_b
         && Float.equal row.d_total_a_s row.d_total_b_s
         && Float.equal row.d_self_a_s row.d_self_b_s)
       r.r_rows
  && List.for_all
       (fun k ->
         k.k_count_a = k.k_count_b && Float.equal k.k_time_a_s k.k_time_b_s)
       r.r_kinds

let top ?(n = 10) r =
  let rec take n = function
    | hd :: tl when n > 0 -> hd :: take (n - 1) tl
    | _ -> []
  in
  take n r.r_rows

(* {1 Rendering} *)

let seconds v = Trace.text_float ~digits:4 v
let signed ~digits v = Trace.text_float ~plus:true ~digits v

let pct_of delta base =
  if base > 0.0 then " (" ^ signed ~digits:1 (100.0 *. delta /. base) ^ "%)"
  else ""

let render ?(top_n = 10) r : string =
  let b = Buffer.create 1024 in
  let delta = wall_delta_s r in
  Buffer.add_string b
    (Printf.sprintf "wall clock: %s s -> %s s, delta %s s%s\n"
       (seconds r.r_wall_a_s) (seconds r.r_wall_b_s) (signed ~digits:4 delta)
       (pct_of delta r.r_wall_a_s));
  if is_zero r then
    Buffer.add_string b "no attributed delta: the traces cost the same\n"
  else begin
    Buffer.add_string b
      (Printf.sprintf "\ntop %d nodes by |self delta|:\n"
         (min top_n (List.length r.r_rows)));
    Buffer.add_string b
      (Printf.sprintf "  %-52s %11s %12s %12s\n" "path" "count A->B"
         "total d (s)" "self d (s)");
    List.iter
      (fun row ->
        Buffer.add_string b
          (Printf.sprintf "  %-52s %5d->%-5d %12s %12s\n"
             row.d_path row.d_count_a row.d_count_b
             (signed ~digits:4 (total_delta row))
             (signed ~digits:4 (self_delta row))))
      (top ~n:top_n r);
    Buffer.add_string b "\nevent kinds by |time delta|:\n";
    Buffer.add_string b
      (Printf.sprintf "  %-24s %11s %12s\n" "kind" "count A->B" "time d (s)");
    List.iter
      (fun k ->
        Buffer.add_string b
          (Printf.sprintf "  %-24s %5d->%-5d %12s\n" k.k_kind k.k_count_a
             k.k_count_b
             (signed ~digits:4 (time_delta k))))
      r.r_kinds
  end;
  Buffer.contents b

let jf = Trace.json_float

let to_json ?(top_n = 10) r : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\n  \"wall_a_s\": %s,\n  \"wall_b_s\": %s,\n  \"delta_s\": %s,\n  \
        \"zero\": %b,\n  \"nodes\": ["
       (jf r.r_wall_a_s) (jf r.r_wall_b_s) (jf (wall_delta_s r)) (is_zero r));
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"path\": %s, \"count_a\": %d, \"count_b\": %d, \
            \"total_a_s\": %s, \"total_b_s\": %s, \"self_a_s\": %s, \
            \"self_b_s\": %s, \"self_delta_s\": %s}"
           (Trace.json_string row.d_path) row.d_count_a row.d_count_b
           (jf row.d_total_a_s) (jf row.d_total_b_s) (jf row.d_self_a_s)
           (jf row.d_self_b_s)
           (jf (self_delta row))))
    (top ~n:top_n r);
  Buffer.add_string b "\n  ],\n  \"kinds\": [";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"kind\": %s, \"count_a\": %d, \"count_b\": %d, \
            \"time_a_s\": %s, \"time_b_s\": %s, \"time_delta_s\": %s}"
           (Trace.json_string k.k_kind) k.k_count_a k.k_count_b
           (jf k.k_time_a_s) (jf k.k_time_b_s)
           (jf (time_delta k))))
    r.r_kinds;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
