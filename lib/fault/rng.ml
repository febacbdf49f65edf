(* Deterministic pseudo-random numbers for fault injection.

   Every stochastic choice in a fault plan (message drop, corruption)
   draws from one of these generators, seeded from the plan — never
   from the global [Random] state — so a run is reproducible from its
   plan's [seed=N] alone.  SplitMix64: tiny state, good distribution,
   and the same sequence on every platform. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let next t : int64 =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1): the top 53 bits scaled by 2^-53. *)
let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(* Per-task sampling decision: fold (client, task) into the seed with
   distinct odd multipliers (golden-ratio siblings, so client 1/task 0
   and client 0/task 1 land far apart), then draw one SplitMix64
   float.  Stateless on purpose — the keep set must not depend on how
   clients interleave in the global stream. *)
let task_keep ~seed ~client ~task ~budget =
  if budget >= 1.0 then true
  else if budget <= 0.0 then false
  else
    let mix =
      Int64.logxor
        (Int64.mul (Int64.of_int (client + 1)) 0xC2B2AE3D27D4EB4FL)
        (Int64.mul (Int64.of_int (task + 1)) 0x9E3779B97F4A7C15L)
    in
    let t = create (Int64.logxor seed mix) in
    float t < budget
