(* A pool of K independent offload servers fronted by a routing
   policy.

   Each member is a complete Server_load — its own worker slots,
   admission queue and contention bookkeeping; the pool adds only the
   placement decision.  The policy picks a server per admission
   request, at the instant the request is examined:

   - Round_robin cycles a counter over the members, blind to load.
   - Least_loaded picks the member with the fewest offloads executing
     at that instant (ties to the lowest id) — below saturation it is
     indistinguishable from round-robin, past it it routes around busy
     servers, which is the policy flip the fleet bench demonstrates.
   - Sticky hashes the client id to a fixed member, so one client's
     offloads always land together (warm-cache placement); the hash is
     multiplicative so consecutive ids spread instead of clustering.

   [load] (the estimator's price preview) peeks at the server the
   policy *would* choose without advancing any policy state, so a
   preview followed by a request sees one consistent server under
   every policy.  All choice is deterministic — no RNG — preserving
   the simulator's byte-identical-rerun contract. *)

module Session = No_runtime.Session
module Selfprof = No_selfprof.Selfprof

type policy = Round_robin | Least_loaded | Sticky

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Sticky -> "sticky"

let policy_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "sticky" -> Some Sticky
  | _ -> None

let all_policies = [ Round_robin; Least_loaded; Sticky ]

(* {1 Member health}

   Two ways a member leaves service mid-run:

   - a *maintenance window* on a static schedule given at creation —
     rolling drains, planned rebalances.  [is_down] is then a pure
     function of simulated time, so health checks made between event
     suspension points (which may observe any interleaving of host
     order) still agree bit-for-bit on every rerun;
   - a *quarantine* — some client observed the member crash and told
     the pool; the member is out for the rest of the run, and every
     other client discovers it at its next exchange. *)

type maintenance = {
  mw_server : int;
  mw_from_s : float;
  mw_until_s : float;
  mw_reason : string;      (* "maintenance", "rebalance", ... *)
}

type t = {
  servers : Server_load.t array;
  policy : policy;
  mutable rr_next : int;               (* Round_robin cursor *)
  schedule : maintenance list;         (* static down windows *)
  quarantined : string option array;   (* Some reason = out for good *)
}

let create_hetero ?(policy = Round_robin) ?(schedule = []) configs =
  let k = Array.length configs in
  if k < 1 then invalid_arg "Pool.create_hetero: no members";
  List.iter
    (fun w ->
      if w.mw_server < 0 || w.mw_server >= k then
        invalid_arg "Pool.create_hetero: schedule names a bad server";
      if not (w.mw_until_s > w.mw_from_s) then
        invalid_arg "Pool.create_hetero: empty maintenance window")
    schedule;
  {
    servers = Array.mapi (fun id cfg -> Server_load.create ~id cfg) configs;
    policy;
    rr_next = 0;
    schedule;
    quarantined = Array.make k None;
  }

let create ?policy ?schedule ~servers cfg =
  if servers < 1 then invalid_arg "Pool.create: servers < 1";
  create_hetero ?policy ?schedule (Array.make servers cfg)

let size t = Array.length t.servers
let policy t = t.policy
let server t i = t.servers.(i)
let schedule t = t.schedule

let volatile t = t.schedule <> []
(* Can membership change under a clean client?  Static windows say yes
   up front; crash quarantines only exist when some client carries a
   fault plan, which the driver accounts for separately. *)

let quarantine t ~server ~reason =
  if server < 0 || server >= Array.length t.servers then
    invalid_arg "Pool.quarantine: bad server";
  if t.quarantined.(server) = None then t.quarantined.(server) <- Some reason

let rec window_reason ~server ~now = function
  | [] -> None
  | w :: rest ->
    if w.mw_server = server && now >= w.mw_from_s && now < w.mw_until_s then
      Some w.mw_reason
    else window_reason ~server ~now rest

let down_reason t ~server ~now =
  match t.quarantined.(server) with
  | Some _ as r -> r
  | None -> window_reason ~server ~now t.schedule

let is_down t ~server ~now = down_reason t ~server ~now <> None

let eligible t ~now ~exclude i =
  i <> exclude && down_reason t ~server:i ~now = None

(* The two scans below run on every admission request and load
   preview, so they are loops that allocate only their answer. *)

(* First in-service member at or after [from] (cyclic), or None when
   the whole pool is dark. *)
let first_eligible t ~now ~exclude ~from =
  let k = Array.length t.servers in
  let found = ref (-1) and n = ref 0 in
  while !found < 0 && !n < k do
    let i = (from + !n) mod k in
    if eligible t ~now ~exclude i then found := i;
    incr n
  done;
  if !found < 0 then None else Some !found

(* The in-service member with the fewest offloads executing, ties to
   the lowest id. *)
let least_loaded_eligible t ~now ~exclude =
  let best = ref (-1) and best_occ = ref 0 in
  for i = 0 to Array.length t.servers - 1 do
    if eligible t ~now ~exclude i then begin
      let occ = Server_load.occupancy t.servers.(i) ~now in
      if !best < 0 || occ < !best_occ then begin
        best := i;
        best_occ := occ
      end
    end
  done;
  if !best < 0 then None else Some !best

(* Knuth's multiplicative hash over the client id: consecutive ids
   land on well-spread members instead of adjacent ones. *)
let sticky_index t ~client =
  let k = Array.length t.servers in
  (client * 2654435761) land max_int mod k

(* The in-service member the policy would route [client] to at [now]:
   Round_robin and Sticky keep their natural anchor (cursor, hash) and
   step past dark members; Least_loaded restricts its scan.  [exclude]
   additionally bars one member — migration re-admission must not land
   back on the server that just died. *)
let route t ~client ~now ~exclude =
  match t.policy with
  | Round_robin -> first_eligible t ~now ~exclude ~from:t.rr_next
  | Least_loaded -> least_loaded_eligible t ~now ~exclude
  | Sticky -> first_eligible t ~now ~exclude ~from:(sticky_index t ~client)

(* The member the policy would grant the next request from [client] to
   at instant [now] — without advancing any policy state.  When the
   whole pool is dark this still answers (the policy's anchor) so load
   previews have a price; the request itself will be rejected. *)
let peek t ~client ~now =
  match route t ~client ~now ~exclude:(-1) with
  | Some i -> i
  | None -> (
    match t.policy with
    | Round_robin -> t.rr_next
    | Least_loaded -> 0
    | Sticky -> sticky_index t ~client)

let load t ~client ~now =
  Selfprof.enter Pool_route;
  let l = Server_load.load t.servers.(peek t ~client ~now) ~now in
  Selfprof.leave Pool_route;
  l

let granted t chosen ~now ~target =
  (match t.policy with
  | Round_robin -> t.rr_next <- (chosen + 1) mod Array.length t.servers
  | Least_loaded | Sticky -> ());
  Server_load.request t.servers.(chosen) ~now ~target

let request t ~client ~now ~target : Session.admission =
  Selfprof.enter Pool_route;
  let a =
    match route t ~client ~now ~exclude:(-1) with
    | Some chosen -> granted t chosen ~now ~target
    | None ->
      (* Every member is dark: the task never leaves the mobile. *)
      Session.Rejected { server = peek t ~client ~now; queue_depth = 0 }
  in
  Selfprof.leave Pool_route;
  a

let request_excluding t ~client ~now ~target ~exclude : Session.admission =
  Selfprof.enter Pool_route;
  let a =
    match route t ~client ~now ~exclude with
    | Some chosen -> granted t chosen ~now ~target
    | None -> Session.Rejected { server = exclude; queue_depth = 0 }
  in
  Selfprof.leave Pool_route;
  a

let release t ~server ~now ~slot =
  if server < 0 || server >= Array.length t.servers then
    invalid_arg "Pool.release: bad server";
  Server_load.release t.servers.(server) ~now ~slot

let stats t = Array.map Server_load.stats t.servers

(* Pool-wide totals: the single-server stats summed, with peak
   occupancy reported as the largest per-member peak (occupancies on
   distinct machines don't add). *)
let total_stats t =
  Array.fold_left
    (fun acc (st : Server_load.stats) ->
      {
        Server_load.st_admits = acc.Server_load.st_admits + st.st_admits;
        st_queued = acc.Server_load.st_queued + st.st_queued;
        st_rejects = acc.Server_load.st_rejects + st.st_rejects;
        st_peak_occupancy =
          max acc.Server_load.st_peak_occupancy st.st_peak_occupancy;
      })
    { Server_load.st_admits = 0; st_queued = 0; st_rejects = 0;
      st_peak_occupancy = 0 }
    (stats t)
