(* Equation 1 of the paper:

     Tg = (Tm - Ts) - Tc
        = Tm * (1 - 1/R) - 2 * (M / BW) * Ninvo

   Tm: mobile execution time of the task; R: server/mobile performance
   ratio; M: memory the task uses (bytes); BW: network bandwidth
   (bits/s); Ninvo: invocation count.  The shared data crosses the
   network twice per invocation (mobile->server, server->mobile),
   hence the factor 2. *)

type inputs = {
  tm_s : float;          (* mobile execution time, seconds *)
  r : float;             (* performance ratio *)
  mem_bytes : int;       (* M *)
  bw_bps : float;        (* BW, bits per second *)
  invocations : int;     (* Ninvo *)
}

type breakdown = {
  ideal_gain_s : float;  (* Tm * (1 - 1/R) *)
  comm_cost_s : float;   (* 2 * M/BW * Ninvo *)
  gain_s : float;        (* ideal - comm *)
}

let evaluate { tm_s; r; mem_bytes; bw_bps; invocations } : breakdown =
  if r <= 0.0 then invalid_arg "Equation.evaluate: non-positive ratio";
  if bw_bps <= 0.0 then invalid_arg "Equation.evaluate: non-positive bandwidth";
  let ideal_gain_s = tm_s *. (1.0 -. (1.0 /. r)) in
  let comm_cost_s =
    2.0 *. (float_of_int mem_bytes *. 8.0 /. bw_bps) *. float_of_int invocations
  in
  { ideal_gain_s; comm_cost_s; gain_s = ideal_gain_s -. comm_cost_s }
