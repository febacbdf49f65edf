(* Runtime fault oracle.

   The injector is the mutable counterpart of a {!Plan.t}: the session
   asks it, at each blocking exchange, what happens to this message at
   this simulated instant.  All randomness comes from the plan's
   seeded SplitMix64 stream, and the RNG is consulted only when the
   plan actually has a loss/corruption probability, so an empty plan
   observes nothing and perturbs nothing. *)

type policy = {
  deadline_s : float;
  max_attempts : int;
  backoff_base_s : float;
  backoff_mult : float;
  backoff_max_s : float;
}

let default_policy =
  {
    deadline_s = 0.5;
    max_attempts = 5;
    backoff_base_s = 0.25;
    backoff_mult = 2.0;
    backoff_max_s = 2.0;
  }

let backoff_s policy ~attempt =
  (* attempt is 1-based: the wait before attempt [n+1] after failure
     [n] grows geometrically, capped. *)
  min policy.backoff_max_s
    (policy.backoff_base_s *. (policy.backoff_mult ** float_of_int (attempt - 1)))

type verdict =
  | Deliver
  | Outage of float  (** link dark until [t] *)
  | Drop  (** message lost; sender times out *)
  | Corrupt  (** delivered but mangled; receiver rejects, sender resends *)
  | Server_down

type t = {
  plan : Plan.t;
  rng : Rng.t;
  mutable injected : int;
  (* A planned crash kills one specific machine.  When the session
     migrates the task to another pool member the plan's crash is
     spent — the new host is healthy — so the oracle stops returning
     Server_down. *)
  mutable crash_cleared : bool;
}

let create plan =
  {
    plan;
    rng = Rng.create plan.Plan.seed;
    injected = 0;
    crash_cleared = false;
  }

let plan t = t.plan
let injected t = t.injected

let outage_until t ~now =
  List.find_map
    (fun (o : Plan.outage) ->
      if now >= o.Plan.out_from_s && now < o.Plan.out_until_s then
        Some o.Plan.out_until_s
      else None)
    t.plan.Plan.outages

let bw_factor t ~now =
  match t.plan.Plan.collapse with
  | Some c when now >= c.Plan.col_at_s -> c.Plan.col_factor
  | _ -> 1.0

let server_crashed t ~now =
  (not t.crash_cleared)
  &&
  match t.plan.Plan.crash_at_s with
  | Some at -> now >= at
  | None -> false

let clear_crash t = t.crash_cleared <- true

let judge t ~now =
  let verdict =
    if server_crashed t ~now then Server_down
    else
      match outage_until t ~now with
      | Some until -> Outage until
      | None ->
        let drop_p = t.plan.Plan.drop_p
        and corrupt_p = t.plan.Plan.corrupt_p in
        if drop_p > 0.0 || corrupt_p > 0.0 then begin
          let u = Rng.float t.rng in
          if u < drop_p then Drop
          else if u < drop_p +. corrupt_p then Corrupt
          else Deliver
        end
        else Deliver
  in
  (match verdict with Deliver -> () | _ -> t.injected <- t.injected + 1);
  verdict

let verdict_kind = function
  | Deliver -> "deliver"
  | Outage _ -> "link-outage"
  | Drop -> "drop"
  | Corrupt -> "corruption"
  | Server_down -> "server-crash"
