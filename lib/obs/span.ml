(* Span trees: fold the flat runtime event stream into a causal tree.

   The runtime emits a flat, timestamped stream (Trace.event); the
   tree recovers the causal structure the paper's Figure 7 attributes
   time to:

     run                          total = wall clock of the run
     |- offload:<target>          one node per (target, outcome) pair,
     |  |- flush:to-server        attempts merged flamegraph-style
     |  |- page-fault
     |  |- remote-io:<name> ...
     |- offload:<target> [failed]
     |  |- rpc-timeout:<op>, backoff:<op>, rollback, local-replay ...
     `- (self time)               mobile compute outside offloads

   Every node carries total time (inclusive), self time (total minus
   children) and a merge count.  Self time is the "unattributed"
   residue — time inside the node no child event accounts for (mobile
   compute at the root, interpreter/NACK stalls inside an attempt) —
   so children + self always sums to the parent and the root always
   sums to the wall clock.

   Failure shapes from the fault-injection runtime nest under the
   failed attempt: the attempt node absorbs the Replay event that
   follows its Offload_end, so the lost attempt *and* the local
   re-execution it forced read as one subtree. *)

module Trace = No_trace.Trace

type node = {
  name : string;
  count : int;       (* events / attempts merged into this node *)
  total_s : float;   (* inclusive time *)
  self_s : float;    (* total minus children (the unattributed residue) *)
  children : node list;  (* descending total, ties broken by name *)
}

let rec iter ?(depth = 0) f node =
  f ~depth node;
  List.iter (fun child -> iter ~depth:(depth + 1) f child) node.children

(* {1 Stream scan} *)

(* A named cost charged inside some scope.  Zero-duration items
   (prefetch, rollback, fault markers) still appear in the tree as
   annotated leaves; they just carry no weight. *)
type item = { i_name : string; i_dur : float }

type attempt = {
  at_name : string;                 (* "offload:<target>" *)
  at_target : string;
  mutable at_failed : bool;
  mutable at_total : float;
  mutable at_items : item list;     (* reversed *)
}

(* Named cost/marker of one event inside its enclosing scope, lasting
   what its kind charges ([Trace.latency]); None for events the tree
   handles structurally (offload life cycle, replay) or intentionally
   leaves out (decisions, power segments — they are their own tracks,
   not cost spans). *)
let item_of_event (ev : Trace.event) : item option =
  let charged i_name = Some { i_name; i_dur = Trace.latency ev }
  and marker i_name = Some { i_name; i_dur = 0.0 } in
  match ev with
  | Trace.Flush { direction; _ } ->
    charged ("flush:" ^ Trace.direction_to_string direction)
  | Trace.Page_fault _ -> charged "page-fault"
  | Trace.Prefetch _ -> marker "prefetch"
  | Trace.Fnptr_translate _ -> charged "fnptr-translate"
  | Trace.Remote_io { io_name; _ } -> charged ("remote-io:" ^ io_name)
  | Trace.Module_load { role; _ } -> marker ("module-load:" ^ role)
  | Trace.Fault_injected { kind; _ } -> marker ("fault:" ^ kind)
  | Trace.Rpc_timeout { op; _ } -> charged ("rpc-timeout:" ^ op)
  | Trace.Retry { op; _ } -> charged ("backoff:" ^ op)
  | Trace.Rollback _ -> marker "rollback"
  | Trace.Fallback_local _ -> marker "fallback-local"
  | Trace.Queue _ -> charged "queue-wait"
  | Trace.Admit _ -> marker "admit"
  | Trace.Reject _ -> marker "reject"
  | Trace.Checkpoint _ -> marker "checkpoint"
  | Trace.Migrate_start _ -> charged "migrate-transfer"
  | Trace.Migrate_done _ -> marker "migrate-done"
  | Trace.Offload_begin _ | Trace.Offload_end _ | Trace.Replay _
  | Trace.Refusal _ | Trace.Estimate _ | Trace.Power_state _
  | Trace.Bw_sample _ -> None

(* The run's wall clock: the latest instant any event reaches
   (Trace.close_s, which Series.duration_s reads too).  Power segments
   partition the timeline, so on a session trace this equals
   Trace.Metrics.total_s (the span-tree invariant tests lock this). *)
let run_end_s events =
  List.fold_left
    (fun acc (ts, ev) -> Float.max acc (Trace.close_s ~ts ev))
    0.0 events

(* {1 Merging} *)

(* Merge a chronological item list into leaf nodes, flamegraph-style:
   one node per distinct name, counts and durations summed. *)
let leaves_of_items (items : item list) : node list =
  let merged = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun it ->
      match Hashtbl.find_opt merged it.i_name with
      | Some (count, dur) ->
        Hashtbl.replace merged it.i_name (count + 1, dur +. it.i_dur)
      | None ->
        Hashtbl.replace merged it.i_name (1, it.i_dur);
        order := it.i_name :: !order)
    items;
  List.map
    (fun name ->
      let count, dur = Hashtbl.find merged name in
      { name; count; total_s = dur; self_s = dur; children = [] })
    (List.rev !order)

let sort_children nodes =
  List.sort
    (fun a b ->
      match compare b.total_s a.total_s with
      | 0 -> String.compare a.name b.name
      | c -> c)
    nodes

let children_total = List.fold_left (fun acc n -> acc +. n.total_s) 0.0

(* Merge attempts that share a (target, outcome) node name. *)
let node_of_attempts name (attempts : attempt list) : node =
  let total =
    List.fold_left (fun acc a -> acc +. a.at_total) 0.0 attempts
  in
  let items = List.concat_map (fun a -> List.rev a.at_items) attempts in
  let children = sort_children (leaves_of_items items) in
  { name; count = List.length attempts; total_s = total;
    self_s = Trace.delta (children_total children) total; children }

let of_events ?(sampled = false) (events : (float * Trace.event) list) : node =
  let root_items = ref [] in        (* reversed *)
  let closed = ref [] in            (* attempts, newest first *)
  let current = ref None in
  let add_item it =
    match !current with
    | Some a -> a.at_items <- it :: a.at_items
    | None -> root_items := it :: !root_items
  in
  List.iter
    (fun (_ts, ev) ->
      match ev with
      | Trace.Offload_begin { target } ->
        (* The runtime never nests offloads; a dangling open attempt
           (truncated capture) is closed over what it accumulated. *)
        (match !current with
        | Some a ->
          a.at_total <-
            List.fold_left (fun acc it -> acc +. it.i_dur) 0.0 a.at_items;
          closed := a :: !closed
        | None -> ());
        current :=
          Some
            { at_name = "offload:" ^ target; at_target = target;
              at_failed = false; at_total = 0.0; at_items = [] }
      | Trace.Offload_end { span_s; _ } -> (
        match !current with
        | Some a ->
          a.at_total <- span_s;
          closed := a :: !closed;
          current := None
        | None -> ())
      | Trace.Fallback_local _ ->
        (match !current with
        | Some a -> a.at_failed <- true
        | None -> ());
        Option.iter add_item (item_of_event ev)
      | Trace.Replay { target; replay_s } -> (
        (* The local replay directly follows the failed attempt's
           Offload_end; absorb it so the whole failure reads as one
           subtree.  A replay with no matching failed attempt (should
           not happen) charges the enclosing scope. *)
        match !closed with
        | a :: _ when a.at_failed && String.equal a.at_target target ->
          a.at_total <- a.at_total +. replay_s;
          a.at_items <-
            { i_name = "local-replay"; i_dur = replay_s } :: a.at_items
        | _ ->
          add_item { i_name = "local-replay:" ^ target; i_dur = replay_s })
      | ev -> Option.iter add_item (item_of_event ev))
    events;
  (match !current with
  | Some a ->
    a.at_total <-
      List.fold_left (fun acc it -> acc +. it.i_dur) 0.0 a.at_items;
    closed := a :: !closed
  | None -> ());
  (* Group attempts by (target, outcome) name. *)
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun a ->
      let name = if a.at_failed then a.at_name ^ " [failed]" else a.at_name in
      match Hashtbl.find_opt groups name with
      | Some attempts -> Hashtbl.replace groups name (a :: attempts)
      | None ->
        Hashtbl.replace groups name [ a ];
        order := name :: !order)
    (List.rev !closed);
  let attempt_nodes =
    List.map
      (fun name -> node_of_attempts name (List.rev (Hashtbl.find groups name)))
      (List.rev !order)
  in
  let children =
    sort_children (attempt_nodes @ leaves_of_items (List.rev !root_items))
  in
  (* On a complete capture the root's self time is real mobile compute:
     wall clock minus everything attributed below.  A sampled trace is
     full of holes — whole dropped tasks — so that residue would be
     mostly missing tasks masquerading as compute; charge the root only
     what its surviving children account for and report no self time. *)
  if sampled then
    { name = "run"; count = 1; total_s = children_total children;
      self_s = 0.0; children }
  else
    let total = run_end_s events in
    { name = "run"; count = 1; total_s = total;
      self_s = Trace.delta (children_total children) total; children }
