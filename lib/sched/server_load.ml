(* The shared-server admission and contention model.

   One server machine exposes [slots] worker slots to N mobile
   clients.  A request that finds a free slot is admitted at once; a
   request that finds every slot busy waits FIFO behind at most
   [queue_cap] earlier waiters, and is rejected outright beyond that —
   a rejected task never leaves its mobile device.

   Contention scales the two resources a client's offload depends on:
   at occupancy m (concurrently executing offloads) the effective
   speedup R and the shared link's bandwidth are multiplied by

       scale(m) = 1 / (1 + coeff * (m - 1))

   ([alpha] for compute, [beta] for the link) — 1.0 for an exclusive
   server, a harmonic-style decay as neighbours pile on.  Both scales
   are priced at the occupancy observed when the offload starts and
   held for its duration; a neighbour admitted later does not
   retroactively slow an offload already in flight.  That conservative
   fixed-price approximation is what makes the simulation a clean
   discrete-event problem (see Sim).

   Bookkeeping is a classic earliest-free-slot scheme: [free_at.(i)]
   is the instant slot [i] frees.  The driver guarantees (and
   [request] asserts) that every booking is finalized — an admitted
   offload runs to its release before any later-arriving request is
   examined — so waits are computed from exact release times, never
   from hold estimates. *)

module Session = No_runtime.Session

type config = {
  slots : int;          (* concurrent worker slots on the server *)
  queue_cap : int;      (* waiting requests tolerated beyond the slots *)
  r_factor : float;     (* member speed relative to the baseline server
                           machine: 1.0 = the architecture's R, 2.0 =
                           twice that.  Heterogeneous pools mix values *)
}

let default = { slots = 2; queue_cap = 2; r_factor = 1.0 }
let alpha = 0.8
let beta = 0.5

let scale coeff ~occupancy =
  if occupancy <= 1 then 1.0
  else 1.0 /. (1.0 +. (coeff *. float_of_int (occupancy - 1)))

(* The member's speed grade composes with contention: a 2x machine at
   occupancy 1 prices r_scale = 2.0, which the session turns into a
   halved server slowdown. *)
let r_scale cfg ~occupancy = cfg.r_factor *. scale alpha ~occupancy
let bw_scale ~occupancy = scale beta ~occupancy

type t = {
  cfg : config;
  id : int;                           (* pool index stamped into admissions *)
  free_at : float array;              (* per-slot release instant *)
  mutable pending_starts : float list; (* admit times of queued waiters *)
  mutable admits : int;
  mutable queued : int;
  mutable rejects : int;
  mutable peak_occupancy : int;
}

let create ?(id = 0) cfg =
  if cfg.slots < 1 then invalid_arg "Server_load.create: slots < 1";
  if cfg.queue_cap < 0 then invalid_arg "Server_load.create: queue_cap < 0";
  if not (cfg.r_factor > 0.0) then
    invalid_arg "Server_load.create: r_factor must be positive";
  {
    cfg;
    id;
    free_at = Array.make cfg.slots 0.0;
    pending_starts = [];
    admits = 0;
    queued = 0;
    rejects = 0;
    peak_occupancy = 0;
  }

let config t = t.cfg
let id t = t.id

(* Offloads still running at instant [at]. *)
let running t ~at =
  Array.fold_left (fun n free -> if free > at then n + 1 else n) 0 t.free_at

let occupancy t ~now = running t ~at:now

(* The load an offload starting this instant would be priced at:
   everyone already running, plus the asker.  Queued waiters are not
   counted — the admission queue, not the estimator, prices the wait —
   so this is the optimistic bound the decision is based on. *)
let load t ~now =
  let m = running t ~at:now + 1 in
  (r_scale t.cfg ~occupancy:m, bw_scale ~occupancy:m)

let request t ~now ~target:_ : Session.admission =
  t.pending_starts <- List.filter (fun s -> s > now) t.pending_starts;
  let slot = ref 0 in
  Array.iteri (fun i free -> if free < t.free_at.(!slot) then slot := i)
    t.free_at;
  let slot = !slot in
  (* Run-to-completion invariant: every earlier booking has been
     finalized by its release, so the earliest-free instant is exact. *)
  assert (Float.is_finite t.free_at.(slot));
  let start = Float.max now t.free_at.(slot) in
  let wait_s = start -. now in
  let queue_depth = List.length t.pending_starts in
  if wait_s > 0.0 && queue_depth >= t.cfg.queue_cap then begin
    t.rejects <- t.rejects + 1;
    Session.Rejected { server = t.id; queue_depth }
  end
  else begin
    let occupancy = running t ~at:start + 1 in
    if wait_s > 0.0 then begin
      t.queued <- t.queued + 1;
      t.pending_starts <- start :: t.pending_starts
    end;
    t.admits <- t.admits + 1;
    if occupancy > t.peak_occupancy then t.peak_occupancy <- occupancy;
    t.free_at.(slot) <- infinity;   (* held; finalized by [release] *)
    Session.Admitted
      {
        server = t.id;
        wait_s;
        occupancy;
        slot;
        queue_depth;
        r_scale = r_scale t.cfg ~occupancy;
        bw_scale = bw_scale ~occupancy;
      }
  end

let release t ~now ~slot =
  if slot < 0 || slot >= Array.length t.free_at then
    invalid_arg "Server_load.release: bad slot";
  t.free_at.(slot) <- now

type stats = {
  st_admits : int;
  st_queued : int;
  st_rejects : int;
  st_peak_occupancy : int;
}

let stats t =
  {
    st_admits = t.admits;
    st_queued = t.queued;
    st_rejects = t.rejects;
    st_peak_occupancy = t.peak_occupancy;
  }
