(* Battery accounting: integrates the power model over the simulated
   timeline.  Each recorded segment goes to the sink as a Power_state
   event, the raw material of Figure 8. *)

type t = {
  model : Power_model.t;
  mutable energy_mj : float;         (* millijoules = mW * s *)
  sink : No_trace.Trace.sink;        (* one Power_state per segment *)
}

let create ?(sink = No_trace.Trace.null) model =
  { model; energy_mj = 0.0; sink }

(* Record that the device was in [state] from [t0] to [t1].
   Zero-length segments are dropped and emit no event. *)
let spend t ~from_s ~to_s state =
  if to_s < from_s then invalid_arg "Battery.spend: negative duration";
  if to_s > from_s then begin
    let mw = Power_model.draw_mw t.model state in
    t.energy_mj <- t.energy_mj +. (mw *. (to_s -. from_s));
    t.sink ~ts:from_s
      (Power_state
         { state = Power_model.state_to_string state; mw;
           duration_s = to_s -. from_s })
  end

let energy_mj t = t.energy_mj
